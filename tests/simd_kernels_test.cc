// Parity and determinism coverage for the kernel-variant dispatch
// (tensor/kernels.h): the hand-written AVX2 micro-kernels against the
// portable scalar reference, the shared fast expf against libm, and
// pool-size bitwise determinism for every new kernel. AVX2-vs-scalar comparisons GTEST_SKIP on hardware without
// AVX2 (the scalar half still runs through the dispatch wrappers there).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/kernels.h"

namespace promptem {
namespace {

namespace kernels = tensor::kernels;
using kernels::KernelVariant;
using kernels::ScopedKernelVariant;

/// Shapes that exercise every microtile tail at once: single row/col,
/// k = 1, primes, one-off-the-register-width, and multiples of the 4/8/16
/// blocking factors.
const int kShapeAxis[] = {1, 2, 3, 5, 8, 13, 16, 17, 31, 33};

std::vector<float> RandomVec(size_t n, core::Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng->Gaussian();
  return v;
}

bool BitsEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Max |a-b| / max(1, |b|) over two buffers.
float MaxRelDiff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    const float denom = std::max(1.0f, std::fabs(b[i]));
    worst = std::max(worst, std::fabs(a[i] - b[i]) / denom);
  }
  return worst;
}

TEST(FastExpfTest, MatchesLibmOnSoftmaxDomain) {
  // The post-max-subtraction domain every softmax feeds it, down to the
  // documented clamp at -80 (below it FastExpf intentionally returns
  // exp(-80) ~ 2e-35; see the EdgeCases test).
  float worst = 0.0f;
  for (float x = -80.0f; x <= 0.0f; x += 0.001f) {
    const float got = kernels::FastExpf(x);
    const float want = std::exp(x);
    const float rel = want > 0.0f ? std::fabs(got - want) / want : 0.0f;
    worst = std::max(worst, rel);
  }
  // The Cephes-style polynomial is good to ~1.2e-7 relative; allow a
  // whisker of slack for the clamp region.
  EXPECT_LE(worst, 2.0e-7f) << "worst relative error " << worst;
}

TEST(FastExpfTest, EdgeCases) {
  EXPECT_EQ(kernels::FastExpf(0.0f), 1.0f);
  // Deep negative clamps to exp(-80) instead of underflowing the 2^e trick.
  EXPECT_NEAR(kernels::FastExpf(-1000.0f), std::exp(-80.0f),
              std::exp(-80.0f) * 1e-5f);
  EXPECT_TRUE(std::isnan(kernels::FastExpf(
      std::numeric_limits<float>::quiet_NaN())));
  // Moderate positive arguments stay accurate (log-sum-exp headroom).
  EXPECT_NEAR(kernels::FastExpf(10.0f), std::exp(10.0f),
              std::exp(10.0f) * 2e-7f);
}

TEST(KernelDispatchTest, ScopedVariantSwitchesAndRestores) {
  const KernelVariant ambient = kernels::ActiveKernelVariant();
  {
    ScopedKernelVariant scalar(KernelVariant::kScalar);
    EXPECT_EQ(kernels::ActiveKernelVariant(), KernelVariant::kScalar);
    {
      ScopedKernelVariant avx2(KernelVariant::kAvx2);
      if (kernels::CpuSupportsAvx2()) {
        EXPECT_EQ(kernels::ActiveKernelVariant(), KernelVariant::kAvx2);
      } else {
        EXPECT_EQ(kernels::ActiveKernelVariant(), KernelVariant::kScalar);
      }
    }
    EXPECT_EQ(kernels::ActiveKernelVariant(), KernelVariant::kScalar);
  }
  EXPECT_EQ(kernels::ActiveKernelVariant(), ambient);
}

TEST(KernelDispatchTest, VariantNames) {
  EXPECT_STREQ(kernels::KernelVariantName(KernelVariant::kScalar), "scalar");
  EXPECT_STREQ(kernels::KernelVariantName(KernelVariant::kAvx2), "avx2");
}

/// Runs Gemm over the full transpose matrix of awkward shapes in both
/// variants and checks the AVX2 result against scalar to tolerance.
/// GEMM reassociates (FMA + 8-lane trees), so parity is relative, scaled
/// by k (the dot length).
TEST(GemmParityTest, Avx2MatchesScalarOnAwkwardShapes) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(42);
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      for (int m : kShapeAxis) {
        for (int n : kShapeAxis) {
          for (int k : kShapeAxis) {
            const auto a =
                RandomVec(static_cast<size_t>(m) * k, &rng);
            const auto b =
                RandomVec(static_cast<size_t>(k) * n, &rng);
            const auto c0 = RandomVec(static_cast<size_t>(m) * n, &rng);
            std::vector<float> c_scalar = c0;
            std::vector<float> c_avx2 = c0;
            {
              ScopedKernelVariant scalar(KernelVariant::kScalar);
              kernels::Gemm(trans_a, trans_b, m, n, k, 0.7f, a.data(),
                            b.data(), 0.3f, c_scalar.data());
            }
            {
              ScopedKernelVariant avx2(KernelVariant::kAvx2);
              kernels::Gemm(trans_a, trans_b, m, n, k, 0.7f, a.data(),
                            b.data(), 0.3f, c_avx2.data());
            }
            const float tol =
                1e-6f * static_cast<float>(k) + 1e-6f;
            EXPECT_LE(MaxRelDiff(c_avx2, c_scalar), tol)
                << "trans_a=" << trans_a << " trans_b=" << trans_b
                << " m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

/// GemmStrided with non-trivial leading dimensions (views into a wider
/// packed buffer — the fused-attention shape).
TEST(GemmParityTest, StridedAvx2MatchesScalar) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(7);
  const int pad = 5;
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      for (int m : {1, 3, 8, 17, 33}) {
        for (int n : {1, 2, 16, 31}) {
          for (int k : {1, 5, 8, 24}) {
            // Stored layouts are pre-transpose; pad every leading dim.
            const int a_rows = trans_a ? k : m;
            const int a_cols = trans_a ? m : k;
            const int b_rows = trans_b ? n : k;
            const int b_cols = trans_b ? k : n;
            const int lda = a_cols + pad;
            const int ldb = b_cols + pad;
            const int ldc = n + pad;
            const auto a =
                RandomVec(static_cast<size_t>(a_rows) * lda, &rng);
            const auto b =
                RandomVec(static_cast<size_t>(b_rows) * ldb, &rng);
            const auto c0 = RandomVec(static_cast<size_t>(m) * ldc, &rng);
            std::vector<float> c_scalar = c0;
            std::vector<float> c_avx2 = c0;
            {
              ScopedKernelVariant scalar(KernelVariant::kScalar);
              kernels::GemmStrided(trans_a, trans_b, m, n, k, 1.1f,
                                   a.data(), lda, b.data(), ldb, 0.5f,
                                   c_scalar.data(), ldc);
            }
            {
              ScopedKernelVariant avx2(KernelVariant::kAvx2);
              kernels::GemmStrided(trans_a, trans_b, m, n, k, 1.1f,
                                   a.data(), lda, b.data(), ldb, 0.5f,
                                   c_avx2.data(), ldc);
            }
            const float tol =
                1e-6f * static_cast<float>(k) + 1e-6f;
            EXPECT_LE(MaxRelDiff(c_avx2, c_scalar), tol)
                << "trans_a=" << trans_a << " trans_b=" << trans_b
                << " m=" << m << " n=" << n << " k=" << k;
            // Padding between rows must be untouched.
            for (int i = 0; i < m; ++i) {
              for (int p = n; p < ldc; ++p) {
                const size_t idx = static_cast<size_t>(i) * ldc + p;
                EXPECT_EQ(c_avx2[idx], c0[idx]);
              }
            }
          }
        }
      }
    }
  }
}

TEST(RowKernelParityTest, SoftmaxVariantsAgree) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(3);
  for (int cols : kShapeAxis) {
    const int rows = 7;
    const auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
    std::vector<float> y_scalar(x.size());
    std::vector<float> y_avx2(x.size());
    {
      ScopedKernelVariant scalar(KernelVariant::kScalar);
      kernels::SoftmaxRows(x.data(), rows, cols, y_scalar.data());
    }
    {
      ScopedKernelVariant avx2(KernelVariant::kAvx2);
      kernels::SoftmaxRows(x.data(), rows, cols, y_avx2.data());
    }
    EXPECT_LE(MaxRelDiff(y_avx2, y_scalar), 1e-5f) << "cols=" << cols;
    // Each row still sums to 1 within float tolerance.
    for (int i = 0; i < rows; ++i) {
      float s = 0.0f;
      for (int j = 0; j < cols; ++j) {
        s += y_avx2[static_cast<size_t>(i) * cols + j];
      }
      EXPECT_NEAR(s, 1.0f, 1e-5f);
    }
  }
}

TEST(RowKernelParityTest, LogSoftmaxVariantsAgree) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(4);
  for (int cols : kShapeAxis) {
    const int rows = 5;
    const auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
    std::vector<float> y_scalar(x.size());
    std::vector<float> y_avx2(x.size());
    {
      ScopedKernelVariant scalar(KernelVariant::kScalar);
      kernels::LogSoftmaxRows(x.data(), rows, cols, y_scalar.data());
    }
    {
      ScopedKernelVariant avx2(KernelVariant::kAvx2);
      kernels::LogSoftmaxRows(x.data(), rows, cols, y_avx2.data());
    }
    EXPECT_LE(MaxRelDiff(y_avx2, y_scalar), 1e-5f) << "cols=" << cols;
  }
}

TEST(RowKernelParityTest, LayerNormVariantsAgree) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(5);
  for (int cols : kShapeAxis) {
    const int rows = 6;
    const auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
    const auto gamma = RandomVec(cols, &rng);
    const auto beta = RandomVec(cols, &rng);
    std::vector<float> out_s(x.size()), out_v(x.size());
    std::vector<float> mean_s(rows), mean_v(rows);
    std::vector<float> rstd_s(rows), rstd_v(rows);
    {
      ScopedKernelVariant scalar(KernelVariant::kScalar);
      kernels::LayerNormForward(x.data(), rows, cols, gamma.data(),
                                beta.data(), 1e-5f, out_s.data(),
                                mean_s.data(), rstd_s.data());
    }
    {
      ScopedKernelVariant avx2(KernelVariant::kAvx2);
      kernels::LayerNormForward(x.data(), rows, cols, gamma.data(),
                                beta.data(), 1e-5f, out_v.data(),
                                mean_v.data(), rstd_v.data());
    }
    EXPECT_LE(MaxRelDiff(out_v, out_s), 1e-4f) << "cols=" << cols;
    EXPECT_LE(MaxRelDiff(mean_v, mean_s), 1e-5f);
    EXPECT_LE(MaxRelDiff(rstd_v, rstd_s), 1e-4f);
  }
}

/// Every dispatched kernel must produce identical bits at any pool size
/// (the chunk decomposition is a pure function of the shape). Run the
/// pool sweep in whichever variant is active *and* pinned scalar.
class PoolDeterminismTest
    : public ::testing::TestWithParam<KernelVariant> {};

TEST_P(PoolDeterminismTest, GemmAllTransposesStableAcrossPoolSizes) {
  if (GetParam() == KernelVariant::kAvx2 && !kernels::CpuSupportsAvx2()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  ScopedKernelVariant pin(GetParam());
  core::Rng rng(51);
  const int m = 67, n = 45, k = 33;
  const auto a = RandomVec(static_cast<size_t>(m) * k, &rng);
  const auto b = RandomVec(static_cast<size_t>(k) * n, &rng);
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      std::vector<float> reference;
      for (int threads : {1, 2, 4}) {
        const int saved = core::GetNumThreads();
        core::SetNumThreads(threads);
        std::vector<float> c(static_cast<size_t>(m) * n, 0.25f);
        kernels::Gemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(),
                      1.0f, c.data());
        core::SetNumThreads(saved);
        if (reference.empty()) {
          reference = c;
        } else {
          EXPECT_TRUE(BitsEqual(c, reference))
              << "trans_a=" << trans_a << " trans_b=" << trans_b
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST_P(PoolDeterminismTest, RowKernelsStableAcrossPoolSizes) {
  if (GetParam() == KernelVariant::kAvx2 && !kernels::CpuSupportsAvx2()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  ScopedKernelVariant pin(GetParam());
  core::Rng rng(61);
  const int rows = 129, cols = 37;
  const auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
  const auto gamma = RandomVec(cols, &rng);
  const auto beta = RandomVec(cols, &rng);
  std::vector<float> sm_ref, lsm_ref, ln_ref;
  for (int threads : {1, 2, 4}) {
    const int saved = core::GetNumThreads();
    core::SetNumThreads(threads);
    std::vector<float> sm(x.size()), lsm(x.size()), ln(x.size());
    std::vector<float> mean(rows), rstd(rows);
    kernels::SoftmaxRows(x.data(), rows, cols, sm.data());
    kernels::LogSoftmaxRows(x.data(), rows, cols, lsm.data());
    kernels::LayerNormForward(x.data(), rows, cols, gamma.data(),
                              beta.data(), 1e-5f, ln.data(), mean.data(),
                              rstd.data());
    core::SetNumThreads(saved);
    if (sm_ref.empty()) {
      sm_ref = sm;
      lsm_ref = lsm;
      ln_ref = ln;
    } else {
      EXPECT_TRUE(BitsEqual(sm, sm_ref)) << "threads=" << threads;
      EXPECT_TRUE(BitsEqual(lsm, lsm_ref)) << "threads=" << threads;
      EXPECT_TRUE(BitsEqual(ln, ln_ref)) << "threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PoolDeterminismTest,
                         ::testing::Values(KernelVariant::kScalar,
                                           KernelVariant::kAvx2),
                         [](const auto& info) {
                           return std::string(
                               kernels::KernelVariantName(info.param));
                         });

}  // namespace
}  // namespace promptem
