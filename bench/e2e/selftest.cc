// Self-test of the benchmark's own helpers: the percentile and its
// ten-samples-beyond guard, per-seed determinism of the Zipf request
// sequence, and stability of the input fingerprint. Run through the
// `selftest` target of bench/e2e/CMakeLists.txt; exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "inputs.h"

namespace sgm::e2e {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  Expect(Near(Percentile(hundred, 0.5), 50.5), "p50 of 1..100 is 50.5");
  Expect(Near(Percentile(hundred, 0.99), 99.01), "p99 of 1..100 is 99.01");
  Expect(Near(Percentile(hundred, 0.0), 1.0), "p0 is the minimum");
  Expect(Near(Percentile(hundred, 1.0), 100.0), "p100 is the maximum");
  Expect(Near(Percentile({7.0}, 0.99), 7.0), "one sample is every quantile");
  Expect(std::isnan(Percentile({}, 0.5)), "empty input gives NaN");

  Expect(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Expect(PercentileSupported(1000, 99), "p99 supported at 1000 samples");
  Expect(!PercentileSupported(999, 99), "p99 unsupported at 999 samples");
  Expect(SamplesBeyond(20, 50) == 10 && PercentileSupported(20, 50),
         "p50 supported at 20 samples");
  Expect(!PercentileSupported(0, 50), "nothing is supported on no samples");
}

void TestZipf() {
  const auto zipf = [](uint64_t rank_seed, uint64_t draw_seed) {
    Prng rank(rank_seed), draw(draw_seed);
    return ZipfSequence(50, 5000, 1.0, &rank, &draw);
  };
  const auto first = zipf(1, 7);
  Expect(first == zipf(1, 7), "same seeds, same sequence");
  Expect(first != zipf(1, 8), "another draw seed, another sequence");
  Expect(first != zipf(2, 7), "another rank seed, another sequence");
  std::vector<int> hits(50, 0);
  for (const uint32_t index : first) ++hits[index];
  int top = 0, second = 0;
  for (const int h : hits) {
    if (h > top) {
      second = top;
      top = h;
    } else if (h > second) {
      second = h;
    }
  }
  // Rank 1 of Zipf(1) over 50 items carries 1/H(50) ~ 22% of the draws,
  // twice rank 2.
  Expect(top > 5000 * 0.18 && top < 5000 * 0.26, "rank 1 draws ~22%");
  Expect(top > second * 3 / 2, "rank 1 is about twice rank 2");
}

void TestFingerprint() {
  for (const Workload w : {Workload::kBuildHeavy, Workload::kEnumHeavy,
                           Workload::kUpdateMix, Workload::kShardK4}) {
    Inputs inputs = MakeInputs(w, 42, 0.02);
    const uint64_t fp = Fingerprint(inputs);
    Expect(fp == Fingerprint(MakeInputs(w, 42, 0.02)),
           "same seed, same fingerprint");
    Expect(fp != Fingerprint(MakeInputs(w, 43, 0.02)),
           "another seed, another fingerprint");
    inputs.sequence[0] = (inputs.sequence[0] + 1) % inputs.pool.size();
    Expect(fp != Fingerprint(inputs), "one changed request changes it");
  }
}

}  // namespace
}  // namespace sgm::e2e

int main() {
  sgm::e2e::TestPercentile();
  sgm::e2e::TestZipf();
  sgm::e2e::TestFingerprint();
  std::printf("%s (%d failure(s))\n",
              sgm::e2e::failures == 0 ? "selftest passed" : "selftest FAILED",
              sgm::e2e::failures);
  return sgm::e2e::failures == 0 ? 0 : 1;
}
