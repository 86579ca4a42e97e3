#ifndef SJSEL_CORE_PARAMETRIC_H_
#define SJSEL_CORE_PARAMETRIC_H_

#include "stats/dataset_stats.h"

namespace sjsel {

/// The prior parametric model of Aref & Samet [2] (Equation 1 of the
/// paper): under a uniformity assumption, the expected join result size of
/// two rectangle sets over a common extent of area A is
///
///   Size = N1*C2 + C1*N2 + N1*N2*(W1*H2 + W2*H1)/A.
///
/// Both stats must have been computed against the same extent. This is
/// exactly what PH degenerates to at gridding level 0.
double ParametricJoinPairs(const DatasetStats& s1, const DatasetStats& s2);

}  // namespace sjsel

#endif  // SJSEL_CORE_PARAMETRIC_H_
