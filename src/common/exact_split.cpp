#include "common/exact_split.h"

namespace vlacnn {

std::pair<double, double> exact_split(double total, double head_approx) {
  if (!(total > 0)) return {0.0, 0.0};
  double head = head_approx;
  if (!(head > 0)) head = 0;
  if (head > total) head = total;
  // Sterbenz: for x in [total/2, total], total - x is computed exactly. Put
  // whichever part is the larger one through that subtraction and the pair
  // reconstitutes total with no rounding at all.
  if (head >= 0.5 * total) {
    return {head, total - head};
  }
  const double tail = total - head;  // rounded, but lands in [total/2, total]
  return {total - tail, tail};
}

}  // namespace vlacnn
