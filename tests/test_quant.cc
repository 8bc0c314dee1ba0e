#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "graph/transaction.h"
#include "query/session.h"
#include "hnsw/flat_index.h"
#include "hnsw/hnsw_index.h"
#include "hnsw/ivf_index.h"
#include "obs/trace.h"
#include "simd/sq8.h"
#include "util/rng.h"
#include "workload/datasets.h"

namespace tigervector {
namespace {

std::vector<int8_t> RandomCodes(Rng* rng, size_t dim) {
  std::vector<int8_t> v(dim);
  for (int8_t& c : v) {
    c = static_cast<int8_t>(static_cast<int64_t>(rng->NextBounded(255)) - 127);
  }
  return v;
}

std::vector<float> RandomVec(Rng* rng, size_t dim, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (float& x : v) x = (rng->NextFloat() - 0.5f) * scale;
  return v;
}

std::vector<simd::IsaLevel> SupportedLevels() {
  std::vector<simd::IsaLevel> levels = {simd::IsaLevel::kScalar};
  if (simd::IsaSupported(simd::IsaLevel::kAvx2)) {
    levels.push_back(simd::IsaLevel::kAvx2);
  }
  if (simd::IsaSupported(simd::IsaLevel::kAvx512)) {
    levels.push_back(simd::IsaLevel::kAvx512);
  }
  return levels;
}

// ---------------------------------------------------------------------------
// Kernel ISA parity. The SQ8 kernels are pure integer arithmetic, so every
// dispatch level must agree with scalar BIT-EXACTLY — no tolerance model.
// ---------------------------------------------------------------------------

class Sq8ParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Sq8ParityTest, AllLevelsMatchScalarExactly) {
  const size_t dim = GetParam();
  const simd::Sq8KernelTable* scalar = simd::Sq8KernelsFor(simd::IsaLevel::kScalar);
  ASSERT_NE(scalar, nullptr);
  Rng rng(201);
  for (simd::IsaLevel level : SupportedLevels()) {
    SCOPED_TRACE(simd::IsaName(level));
    const simd::Sq8KernelTable* t = simd::Sq8KernelsFor(level);
    ASSERT_NE(t, nullptr);
    for (int it = 0; it < 8; ++it) {
      auto a = RandomCodes(&rng, dim);
      auto b = RandomCodes(&rng, dim);
      EXPECT_EQ(t->l2(a.data(), b.data(), dim), scalar->l2(a.data(), b.data(), dim));
      EXPECT_EQ(t->dot(a.data(), b.data(), dim),
                scalar->dot(a.data(), b.data(), dim));
    }
  }
}

TEST_P(Sq8ParityTest, SaturatedCodesDoNotOverflow) {
  // Worst-case magnitude inputs: every element at +/-127. The per-element
  // products (16129) and squared deltas (64516) must accumulate exactly in
  // the widened integer paths of every level.
  const size_t dim = GetParam();
  std::vector<int8_t> pos(dim, 127);
  std::vector<int8_t> neg(dim, -127);
  const int64_t d = static_cast<int64_t>(dim);
  for (simd::IsaLevel level : SupportedLevels()) {
    SCOPED_TRACE(simd::IsaName(level));
    const simd::Sq8KernelTable* t = simd::Sq8KernelsFor(level);
    EXPECT_EQ(t->l2(pos.data(), neg.data(), dim), d * 254 * 254);
    EXPECT_EQ(t->l2(pos.data(), pos.data(), dim), 0);
    EXPECT_EQ(t->dot(pos.data(), pos.data(), dim), d * 127 * 127);
    EXPECT_EQ(t->dot(pos.data(), neg.data(), dim), -d * 127 * 127);
  }
}

TEST_P(Sq8ParityTest, AllZeroCodes) {
  const size_t dim = GetParam();
  std::vector<int8_t> zero(dim, 0);
  Rng rng(202);
  auto b = RandomCodes(&rng, dim);
  const simd::Sq8KernelTable* scalar = simd::Sq8KernelsFor(simd::IsaLevel::kScalar);
  for (simd::IsaLevel level : SupportedLevels()) {
    SCOPED_TRACE(simd::IsaName(level));
    const simd::Sq8KernelTable* t = simd::Sq8KernelsFor(level);
    EXPECT_EQ(t->dot(zero.data(), b.data(), dim), 0);
    EXPECT_EQ(t->l2(zero.data(), b.data(), dim),
              scalar->l2(zero.data(), b.data(), dim));
  }
}

TEST_P(Sq8ParityTest, UnalignedBasePointers) {
  // int8 loads are 1-byte aligned by nature, but the vector paths load 32
  // bytes at a time: offset both operands one byte into the buffer.
  const size_t dim = GetParam();
  Rng rng(203);
  auto abuf = RandomCodes(&rng, dim + 1);
  auto bbuf = RandomCodes(&rng, dim + 1);
  const int8_t* a = abuf.data() + 1;
  const int8_t* b = bbuf.data() + 1;
  const simd::Sq8KernelTable* scalar = simd::Sq8KernelsFor(simd::IsaLevel::kScalar);
  const int64_t l2_ref = scalar->l2(a, b, dim);
  const int64_t dot_ref = scalar->dot(a, b, dim);
  for (simd::IsaLevel level : SupportedLevels()) {
    SCOPED_TRACE(simd::IsaName(level));
    const simd::Sq8KernelTable* t = simd::Sq8KernelsFor(level);
    EXPECT_EQ(t->l2(a, b, dim), l2_ref);
    EXPECT_EQ(t->dot(a, b, dim), dot_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, Sq8ParityTest,
                         ::testing::Values(1, 3, 17, 100, 768, 1031));

// ---------------------------------------------------------------------------
// Quantizer training / encode / decode.
// ---------------------------------------------------------------------------

TEST(Sq8TrainerTest, NoRowsYieldsInvalidParams) {
  simd::Sq8Trainer trainer(8);
  EXPECT_FALSE(trainer.Finish().valid());
}

TEST(Sq8TrainerTest, AllZeroDataYieldsZeroScaleAndZeroCodes) {
  const size_t dim = 5;
  simd::Sq8Trainer trainer(dim);
  std::vector<float> zero(dim, 0.0f);
  trainer.Observe(zero.data());
  trainer.Observe(zero.data());
  simd::Sq8Params params = trainer.Finish();
  ASSERT_TRUE(params.valid());
  EXPECT_EQ(params.scale, 0.0f);
  std::vector<int8_t> codes(dim, 99);
  simd::Sq8Encode(params, zero.data(), dim, codes.data());
  for (int8_t c : codes) EXPECT_EQ(c, 0);
}

TEST(Sq8TrainerTest, ConstantRowsMinEqualsMax) {
  // Every dimension has min == max; the symmetric scale still resolves to
  // |v|_max / 127 and the constant row round-trips to itself exactly at the
  // extreme code.
  const size_t dim = 4;
  std::vector<float> row = {2.0f, -1.0f, 0.5f, 0.0f};
  simd::Sq8Trainer trainer(dim);
  trainer.Observe(row.data());
  trainer.Observe(row.data());
  simd::Sq8Params params = trainer.Finish();
  ASSERT_TRUE(params.valid());
  EXPECT_FLOAT_EQ(params.scale, 2.0f / 127.0f);
  std::vector<int8_t> codes(dim);
  simd::Sq8Encode(params, row.data(), dim, codes.data());
  EXPECT_EQ(codes[0], 127);
  EXPECT_EQ(codes[3], 0);
  std::vector<float> back(dim);
  simd::Sq8Decode(params, codes.data(), dim, back.data());
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(back[i], row[i], params.scale / 2.0f + 1e-7f);
  }
}

TEST(Sq8TrainerTest, EncodeClampsOutOfRangeValues) {
  // A query far outside the trained range must saturate at +/-127, never
  // wrap or overflow.
  const size_t dim = 3;
  simd::Sq8Trainer trainer(dim);
  std::vector<float> row = {1.0f, -1.0f, 0.5f};
  trainer.Observe(row.data());
  simd::Sq8Params params = trainer.Finish();
  std::vector<float> wild = {1e6f, -1e6f, 0.0f};
  std::vector<int8_t> codes(dim);
  simd::Sq8Encode(params, wild.data(), dim, codes.data());
  EXPECT_EQ(codes[0], 127);
  EXPECT_EQ(codes[1], -127);
  EXPECT_EQ(codes[2], 0);
}

TEST(Sq8TrainerTest, DequantErrorBoundedByHalfScale) {
  // Symmetric rounding quantization: |x - s*c| <= s/2 for any x inside the
  // representable range [-127s, 127s].
  const size_t dim = 64;
  Rng rng(204);
  simd::Sq8Trainer trainer(dim);
  std::vector<std::vector<float>> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back(RandomVec(&rng, dim, 8.0f));
    trainer.Observe(rows.back().data());
  }
  simd::Sq8Params params = trainer.Finish();
  ASSERT_TRUE(params.valid());
  ASSERT_GT(params.scale, 0.0f);
  std::vector<int8_t> codes(dim);
  std::vector<float> back(dim);
  for (const auto& row : rows) {
    simd::Sq8Encode(params, row.data(), dim, codes.data());
    simd::Sq8Decode(params, codes.data(), dim, back.data());
    for (size_t d = 0; d < dim; ++d) {
      EXPECT_LE(std::fabs(back[d] - row[d]), params.scale / 2.0f + 1e-6f)
          << "dim " << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched entry points agree with the raw kernels and honor the threshold
// contract (strictly below), for every metric.
// ---------------------------------------------------------------------------

class Sq8BatchTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Sq8BatchTest, BatchMatchesKernelFormula) {
  const size_t dim = GetParam();
  const size_t count = 37;
  Rng rng(205);
  auto query = RandomCodes(&rng, dim);
  std::vector<int8_t> rows(dim * count);
  for (int8_t& c : rows) {
    c = static_cast<int8_t>(static_cast<int64_t>(rng.NextBounded(255)) - 127);
  }
  std::vector<int64_t> row_norms(count);
  for (size_t i = 0; i < count; ++i) {
    row_norms[i] = simd::Sq8CodeNorm(rows.data() + i * dim, dim);
  }
  const int64_t qnorm = simd::Sq8CodeNorm(query.data(), dim);
  const float scale = 0.0625f;
  const simd::Sq8KernelTable* k = simd::Sq8KernelsFor(simd::ActiveIsa());
  ASSERT_NE(k, nullptr);
  std::vector<float> dists(count);
  for (Metric m : {Metric::kL2, Metric::kIp, Metric::kCosine}) {
    SCOPED_TRACE(MetricName(m));
    simd::Sq8DistanceBatch(m, query.data(), qnorm, scale, rows.data(),
                           row_norms.data(), dim, count, dists.data());
    for (size_t i = 0; i < count; ++i) {
      const int8_t* row = rows.data() + i * dim;
      float expect = 0.0f;
      if (m == Metric::kL2) {
        expect = scale * scale *
                 static_cast<float>(k->l2(query.data(), row, dim));
      } else if (m == Metric::kIp) {
        expect = 1.0f - scale * scale *
                            static_cast<float>(k->dot(query.data(), row, dim));
      } else {
        const double nq = static_cast<double>(qnorm);
        const double nr = static_cast<double>(row_norms[i]);
        expect = (nq == 0.0 || nr == 0.0)
                     ? 2.0f
                     : static_cast<float>(
                           1.0 - static_cast<double>(k->dot(query.data(), row, dim)) /
                                     std::sqrt(nq * nr));
      }
      EXPECT_FLOAT_EQ(dists[i], expect) << "row " << i;
    }
  }
}

TEST_P(Sq8BatchTest, GatherMatchesContiguous) {
  const size_t dim = GetParam();
  const size_t count = 29;
  Rng rng(206);
  auto query = RandomCodes(&rng, dim);
  std::vector<std::vector<int8_t>> storage;
  std::vector<const int8_t*> rows;
  std::vector<int8_t> contiguous;
  std::vector<int64_t> norms;
  for (size_t i = 0; i < count; ++i) {
    storage.push_back(RandomCodes(&rng, dim));
    rows.push_back(storage.back().data());
    contiguous.insert(contiguous.end(), storage.back().begin(),
                      storage.back().end());
    norms.push_back(simd::Sq8CodeNorm(storage.back().data(), dim));
  }
  const int64_t qnorm = simd::Sq8CodeNorm(query.data(), dim);
  std::vector<float> a(count), b(count);
  for (Metric m : {Metric::kL2, Metric::kIp, Metric::kCosine}) {
    SCOPED_TRACE(MetricName(m));
    simd::Sq8DistanceBatch(m, query.data(), qnorm, 0.125f, contiguous.data(),
                           norms.data(), dim, count, a.data());
    simd::Sq8DistanceBatchGather(m, query.data(), qnorm, 0.125f, rows.data(),
                                 norms.data(), dim, count, b.data());
    for (size_t i = 0; i < count; ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
  }
}

TEST_P(Sq8BatchTest, ThresholdCountsStrictlyBelow) {
  const size_t dim = GetParam();
  const size_t count = 41;
  Rng rng(207);
  auto query = RandomCodes(&rng, dim);
  std::vector<int8_t> rows(dim * count);
  for (int8_t& c : rows) {
    c = static_cast<int8_t>(static_cast<int64_t>(rng.NextBounded(255)) - 127);
  }
  const int64_t qnorm = simd::Sq8CodeNorm(query.data(), dim);
  std::vector<float> dists(count);
  simd::Sq8DistanceBatch(Metric::kL2, query.data(), qnorm, 0.03125f, rows.data(),
                         nullptr, dim, count, dists.data());
  std::vector<float> sorted = dists;
  std::sort(sorted.begin(), sorted.end());
  for (float threshold : {sorted[count / 2], sorted[0], sorted[count - 1]}) {
    size_t expect = 0;
    for (float d : dists) {
      if (d < threshold) ++expect;
    }
    EXPECT_EQ(simd::Sq8DistanceBatch(Metric::kL2, query.data(), qnorm, 0.03125f,
                                     rows.data(), nullptr, dim, count,
                                     dists.data(), threshold),
              expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, Sq8BatchTest, ::testing::Values(3, 100, 768));

// ---------------------------------------------------------------------------
// Dispatch / env plumbing.
// ---------------------------------------------------------------------------

TEST(Sq8DispatchTest, ScalarTableAlwaysAvailable) {
  ASSERT_NE(simd::Sq8KernelsFor(simd::IsaLevel::kScalar), nullptr);
  EXPECT_NE(simd::Sq8KernelsFor(simd::ActiveIsa()), nullptr);
}

TEST(Sq8DispatchTest, EnvOverrideIsRespected) {
  // The CI matrix runs this binary under TV_QUANT=sq8 (and TV_SIMD=scalar);
  // assert the overrides actually landed.
  const char* env = std::getenv("TV_QUANT");
  if (env != nullptr && std::string(env) == "sq8") {
    EXPECT_EQ(simd::ActiveQuantMode(), simd::QuantMode::kSq8);
    EXPECT_STREQ(simd::ActiveQuantModeName(), "sq8");
  } else if (env != nullptr && std::string(env) == "off") {
    EXPECT_EQ(simd::ActiveQuantMode(), simd::QuantMode::kOff);
  }
  EXPECT_GE(simd::DefaultRerankFactor(), 1u);
}

TEST(Sq8DispatchTest, ScopedQuantQueryNestsAndRestores) {
  EXPECT_TRUE(simd::ScopedQuantQuery::Enabled());  // default state
  {
    simd::ScopedQuantQuery off(false, 0);
    EXPECT_FALSE(simd::ScopedQuantQuery::Enabled());
    {
      simd::ScopedQuantQuery on(true, 7);
      EXPECT_TRUE(simd::ScopedQuantQuery::Enabled());
      EXPECT_EQ(simd::ScopedQuantQuery::RerankFactor(), 7u);
    }
    EXPECT_FALSE(simd::ScopedQuantQuery::Enabled());
  }
  EXPECT_TRUE(simd::ScopedQuantQuery::Enabled());
  EXPECT_EQ(simd::ScopedQuantQuery::RerankFactor(), simd::DefaultRerankFactor());
}

// ---------------------------------------------------------------------------
// Recall gate: SQ8 + rerank top-k vs the exact fp32 oracle, on the paper's
// query shapes. The gate is tie-tolerant: a result id counts as correct when
// its EXACT distance is within the oracle's k-th distance (ties at the
// boundary may legitimately swap).
// ---------------------------------------------------------------------------

double TieTolerantRecall(const VectorIndex& index, const float* query,
                         const std::vector<SearchHit>& result,
                         const std::vector<SearchHit>& oracle, size_t k) {
  if (oracle.empty()) return 1.0;
  const size_t n = std::min(k, oracle.size());
  const float kth = oracle[n - 1].distance;
  const float tol = 1e-5f * (1.0f + std::fabs(kth));
  size_t good = 0;
  for (size_t i = 0; i < std::min(k, result.size()); ++i) {
    // Reranked distances are exact fp32, so comparing against the oracle's
    // k-th distance needs only a rounding-level tolerance.
    if (result[i].distance <= kth + tol) ++good;
  }
  (void)index;
  (void)query;
  return static_cast<double>(good) / static_cast<double>(n);
}

class QuantRecallTest : public ::testing::Test {
 protected:
  // Builds an sq8-enabled HNSW over `dataset` and returns mean tie-tolerant
  // recall@k over all queries with the given rerank factor.
  static double HnswRecall(const VectorDataset& dataset, size_t k, size_t ef,
                           size_t rerank_factor) {
    HnswParams params;
    params.dim = dataset.dim;
    params.metric = dataset.metric;
    params.max_elements = dataset.num_base;
    params.m = 8;
    params.ef_construction = 64;
    params.sq8 = true;
    HnswIndex index(params);
    for (size_t i = 0; i < dataset.num_base; ++i) {
      EXPECT_TRUE(index.AddPoint(i, dataset.BaseVector(i)).ok());
    }
    EXPECT_TRUE(index.TrainQuantization().ok());
    EXPECT_TRUE(index.quant_active());
    double total = 0;
    for (size_t q = 0; q < dataset.num_queries; ++q) {
      std::vector<SearchHit> oracle;
      {
        simd::ScopedQuantQuery exact(false, 0);
        oracle = index.BruteForceSearch(dataset.QueryVector(q), k, FilterView());
      }
      std::vector<SearchHit> got;
      {
        simd::ScopedQuantQuery quant(true, rerank_factor);
        got = index.TopKSearch(dataset.QueryVector(q), k, ef, FilterView());
      }
      total += TieTolerantRecall(index, dataset.QueryVector(q), got, oracle, k);
    }
    return total / static_cast<double>(dataset.num_queries);
  }
};

// Shape 1: pure top-k over SIFT-like L2 data (the paper's SIFT runs).
// ef=128 matches the paper's efb; at ef=96 plain fp32 HNSW already dips
// below 0.95 on this dataset, so the gate would measure the graph, not SQ8.
TEST_F(QuantRecallTest, PureTopKSiftLikeL2) {
  VectorDataset ds = MakeSiftLike(1500, 20, /*seed=*/31);
  EXPECT_GE(HnswRecall(ds, /*k=*/10, /*ef=*/128, /*rerank_factor=*/3), 0.95);
}

// Shape 2: normalized Deep-like data (the paper's Deep runs).
TEST_F(QuantRecallTest, PureTopKDeepLike) {
  VectorDataset ds = MakeDeepLike(1500, 20, /*seed=*/32);
  EXPECT_GE(HnswRecall(ds, 10, 96, 3), 0.95);
}

// Shape 3: cosine metric (the advanced-RAG default in the paper's examples).
TEST_F(QuantRecallTest, CosineMetric) {
  VectorDataset ds = MakeDeepLike(1200, 20, 33);
  ds.metric = Metric::kCosine;
  EXPECT_GE(HnswRecall(ds, 10, 96, 3), 0.95);
}

// Shape 4: filtered search (pre-filter bitmap, paper Sec. 5.2) through the
// quantized beam, and the brute-force tier under high selectivity.
TEST_F(QuantRecallTest, FilteredSearchAndBruteForceTier) {
  VectorDataset ds = MakeSiftLike(800, 15, 34);
  HnswParams params;
  params.dim = ds.dim;
  params.metric = ds.metric;
  params.max_elements = ds.num_base;
  params.sq8 = true;
  HnswIndex index(params);
  for (size_t i = 0; i < ds.num_base; ++i) {
    ASSERT_TRUE(index.AddPoint(i, ds.BaseVector(i)).ok());
  }
  ASSERT_TRUE(index.TrainQuantization().ok());
  Bitmap bitmap(ds.num_base);
  for (size_t i = 0; i < ds.num_base; i += 2) bitmap.Set(i);  // 50% filter
  FilterView filter(&bitmap);
  const size_t k = 10;
  double beam_total = 0, bf_total = 0;
  for (size_t q = 0; q < ds.num_queries; ++q) {
    std::vector<SearchHit> oracle;
    {
      simd::ScopedQuantQuery exact(false, 0);
      oracle = index.BruteForceSearch(ds.QueryVector(q), k, filter);
    }
    std::vector<SearchHit> beam, bf;
    {
      simd::ScopedQuantQuery quant(true, 3);
      beam = index.TopKSearch(ds.QueryVector(q), k, 96, filter);
      bf = index.BruteForceSearch(ds.QueryVector(q), k, filter);
    }
    beam_total += TieTolerantRecall(index, ds.QueryVector(q), beam, oracle, k);
    bf_total += TieTolerantRecall(index, ds.QueryVector(q), bf, oracle, k);
    for (const SearchHit& h : beam) EXPECT_EQ(h.label % 2, 0u);  // filter honored
  }
  EXPECT_GE(beam_total / ds.num_queries, 0.95);
  EXPECT_GE(bf_total / ds.num_queries, 0.95);
}

// Shape 5: the alternative index families (FLAT exact-scan tier and
// IVF_FLAT probes) under quantized ranking.
TEST_F(QuantRecallTest, FlatAndIvfIndexes) {
  VectorDataset ds = MakeSiftLike(900, 15, 35);
  const size_t k = 10;

  FlatIndex flat(ds.dim, ds.metric, /*sq8=*/true);
  IvfParams iparams;
  iparams.dim = ds.dim;
  iparams.metric = ds.metric;
  iparams.nlist = 16;
  iparams.sq8 = true;
  IvfFlatIndex ivf(iparams);
  for (size_t i = 0; i < ds.num_base; ++i) {
    ASSERT_TRUE(flat.AddPoint(i, ds.BaseVector(i)).ok());
    ASSERT_TRUE(ivf.AddPoint(i, ds.BaseVector(i)).ok());
  }
  ASSERT_TRUE(flat.TrainQuantization().ok());
  ASSERT_TRUE(ivf.TrainQuantization().ok());
  EXPECT_TRUE(flat.quant_active());
  EXPECT_TRUE(ivf.quant_active());

  double flat_total = 0, ivf_total = 0;
  for (size_t q = 0; q < ds.num_queries; ++q) {
    std::vector<SearchHit> oracle;
    {
      simd::ScopedQuantQuery exact(false, 0);
      oracle = flat.BruteForceSearch(ds.QueryVector(q), k, FilterView());
    }
    std::vector<SearchHit> flat_hits, ivf_hits;
    {
      simd::ScopedQuantQuery quant(true, 3);
      flat_hits = flat.TopKSearch(ds.QueryVector(q), k, 64, FilterView());
      ivf_hits = ivf.TopKSearch(ds.QueryVector(q), k, 64, FilterView());
    }
    flat_total += TieTolerantRecall(flat, ds.QueryVector(q), flat_hits, oracle, k);
    ivf_total += TieTolerantRecall(ivf, ds.QueryVector(q), ivf_hits, oracle, k);
  }
  // FLAT scans everything, so SQ8+rerank recall stays near-exact; IVF adds
  // its own probe approximation on top.
  EXPECT_GE(flat_total / ds.num_queries, 0.95);
  EXPECT_GE(ivf_total / ds.num_queries, 0.90);
}

// Canary: rerank_factor=1 (no extra candidates, rescoring only) must not
// beat the default budget — if it does, the rerank stage is not actually
// widening the candidate set and the knob is dead.
TEST_F(QuantRecallTest, RerankFactorOneDegradesMonotonically) {
  VectorDataset ds = MakeSiftLike(1500, 25, 36);
  const double rf1 = HnswRecall(ds, 10, 32, 1);
  const double rf3 = HnswRecall(ds, 10, 32, 3);
  EXPECT_LE(rf1, rf3 + 1e-9);
  EXPECT_GT(rf3, 0.0);
}

// Reported distances must be exact fp32 even when ranking ran on codes —
// the soundness half of the rerank contract.
TEST_F(QuantRecallTest, RerankedDistancesAreExact) {
  VectorDataset ds = MakeSiftLike(400, 10, 37);
  HnswParams params;
  params.dim = ds.dim;
  params.metric = ds.metric;
  params.max_elements = ds.num_base;
  params.sq8 = true;
  HnswIndex index(params);
  for (size_t i = 0; i < ds.num_base; ++i) {
    ASSERT_TRUE(index.AddPoint(i, ds.BaseVector(i)).ok());
  }
  ASSERT_TRUE(index.TrainQuantization().ok());
  for (size_t q = 0; q < ds.num_queries; ++q) {
    simd::ScopedQuantQuery quant(true, 3);
    auto hits = index.TopKSearch(ds.QueryVector(q), 5, 64, FilterView());
    for (const SearchHit& h : hits) {
      EXPECT_FLOAT_EQ(h.distance,
                      ComputeDistance(ds.metric, ds.QueryVector(q),
                                      ds.BaseVector(h.label), ds.dim));
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: schema QUANT option, EXPLAIN actuals, and cache isolation.
// ---------------------------------------------------------------------------

class QuantDatabaseFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.store.segment_capacity = 16;
    options.embeddings.index_params.m = 8;
    options.embeddings.index_params.ef_construction = 64;
    db_ = std::make_unique<Database>(options);
    ASSERT_TRUE(db_->schema()->CreateVertexType("Doc", {}).ok());
    EmbeddingTypeInfo info;
    info.dimension = 8;
    info.model = "M";
    info.metric = Metric::kL2;
    info.quant = QuantOption::kSq8;  // pinned on, regardless of TV_QUANT
    ASSERT_TRUE(db_->schema()->AddEmbeddingAttr("Doc", "emb", info).ok());
    Rng rng(41);
    for (int i = 0; i < 48; ++i) {
      Transaction txn = db_->Begin();
      auto vid = txn.InsertVertex("Doc", {});
      ASSERT_TRUE(vid.ok());
      ASSERT_TRUE(txn.SetEmbedding(*vid, "Doc", "emb", RandomVec(&rng, 8, 6.0f)).ok());
      ASSERT_TRUE(txn.Commit().ok());
      vids_.push_back(*vid);
    }
    // Fold deltas so the (trained) index serves the searches.
    ASSERT_TRUE(db_->Vacuum().ok());
  }

  // Runs one VectorSearch() under its own query trace and returns the
  // counters it filed there (tier counts, cache outcome).
  std::map<std::string, uint64_t> TracedSearch(
      const std::vector<float>& q, size_t k, const Database::VectorSearchFnOptions& opts,
      VertexSet* out = nullptr) {
    obs::QueryTrace trace;
    obs::ScopedTraceActivation activation(&trace);
    auto result = db_->VectorSearch({{"Doc", "emb"}}, q, k, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (out != nullptr && result.ok()) *out = *result;
    return trace.Counters();
  }

  std::unique_ptr<Database> db_;
  std::vector<VertexId> vids_;
};

TEST_F(QuantDatabaseFixture, SchemaPinSurvivesToStringRoundTripIntent) {
  EmbeddingTypeInfo info;
  info.dimension = 8;
  info.quant = QuantOption::kSq8;
  EXPECT_NE(info.ToString().find("QUANT=SQ8"), std::string::npos);
  info.quant = QuantOption::kOff;
  EXPECT_NE(info.ToString().find("QUANT=OFF"), std::string::npos);
  info.quant = QuantOption::kDefault;
  // Pre-option schemas round-trip byte-identical: no QUANT text at all.
  EXPECT_EQ(info.ToString().find("QUANT"), std::string::npos);
}

// The QUANT option must parse through real GSQL, not just the C++ schema
// API — this was once broken because QUANT/SQ8/OFF were missing from the
// lexer's keyword set, so the parser branch was unreachable from the shell.
TEST(QuantGsql, QuantOptionParsesThroughGsql) {
  for (const auto& [text, want] :
       {std::pair<const char*, QuantOption>{"QUANT = SQ8", QuantOption::kSq8},
        {"QUANT = OFF", QuantOption::kOff}}) {
    Database db;
    GsqlSession session(&db);
    auto r = session.Run(
        std::string("CREATE VERTEX Doc (id INT);"
                    "ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb"
                    " (DIMENSION = 8, MODEL = M, METRIC = L2, ") +
        text + ");");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto vt = db.schema()->GetVertexType("Doc");
    ASSERT_TRUE(vt.ok());
    const EmbeddingAttrDef* def = (*vt)->FindEmbeddingAttr("emb");
    ASSERT_NE(def, nullptr);
    EXPECT_EQ(def->info.quant, want);
  }
  Database db;
  GsqlSession session(&db);
  auto bad = session.Run(
      "CREATE VERTEX Doc (id INT);"
      "ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb"
      " (DIMENSION = 8, QUANT = PQ);");
  EXPECT_FALSE(bad.ok());
}

TEST_F(QuantDatabaseFixture, SearchUsesQuantAndReranks) {
  std::vector<float> q(8, 0.5f);
  Database::VectorSearchFnOptions opts;
  opts.bypass_cache = true;
  VertexSet out;
  auto counters = TracedSearch(q, 5, opts, &out);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_GT(counters["search.quant_segments"], 0u);
  EXPECT_GE(counters["search.reranked"], 5u);  // at least k candidates rescored
}

TEST_F(QuantDatabaseFixture, QuantSearchMatchesExactTopKHere) {
  // With rerank_factor 3 on a small segment the quantized path should agree
  // with the exact answer on this dataset (it scans essentially everything).
  std::vector<float> q(8, -0.25f);
  Database::VectorSearchFnOptions opts;
  opts.bypass_cache = true;
  std::unordered_map<VertexId, float> dists;
  opts.distance_map = &dists;
  auto quant_out = db_->VectorSearch({{"Doc", "emb"}}, q, 3, opts);
  ASSERT_TRUE(quant_out.ok());
  // Reported distances are exact fp32 regardless of ranking tier.
  for (const auto& [vid, d] : dists) {
    std::vector<float> stored(8);
    ASSERT_TRUE(db_->embeddings()->GetEmbedding("Doc", "emb", vid, stored.data()).ok());
    EXPECT_FLOAT_EQ(d, ComputeDistance(Metric::kL2, q.data(), stored.data(), 8));
  }
}

TEST_F(QuantDatabaseFixture, CacheMissThenHitPreservesQuantActuals) {
  std::vector<float> q(8, 1.5f);
  Database::VectorSearchFnOptions opts;
  VertexSet first, second;
  auto miss = TracedSearch(q, 4, opts, &first);
  EXPECT_EQ(miss["cache.topk_miss"], 1u);
  auto hit = TracedSearch(q, 4, opts, &second);
  EXPECT_EQ(hit["cache.topk_hit"], 1u);
  EXPECT_EQ(first, second);
  // The hit path reports the quant stats of the run that populated the
  // entry — EXPLAIN ANALYZE on a warm cache stays faithful.
  EXPECT_EQ(hit["search.quant_segments"], miss["search.quant_segments"]);
  EXPECT_EQ(hit["search.reranked"], miss["search.reranked"]);
  EXPECT_GT(hit["search.quant_segments"], 0u);
}

TEST_F(QuantDatabaseFixture, RerankFactorIsolatesCacheEntries) {
  // Different rerank budgets can produce different (both sound) answers, so
  // they must never share a cache entry: same query again with a different
  // factor is a MISS, and each factor then hits its own entry.
  std::vector<float> q(8, -2.0f);
  Database::VectorSearchFnOptions opts;
  opts.rerank_factor = 2;
  EXPECT_EQ(TracedSearch(q, 4, opts)["cache.topk_miss"], 1u);
  opts.rerank_factor = 5;
  EXPECT_EQ(TracedSearch(q, 4, opts)["cache.topk_miss"], 1u);
  opts.rerank_factor = 2;
  EXPECT_EQ(TracedSearch(q, 4, opts)["cache.topk_hit"], 1u);
  opts.rerank_factor = 5;
  EXPECT_EQ(TracedSearch(q, 4, opts)["cache.topk_hit"], 1u);
}

TEST_F(QuantDatabaseFixture, RangeSearchStaysExact) {
  // Range oracles depend on exact distances against the threshold; the
  // segment pins quantization off for ranges even on an SQ8 attribute.
  std::vector<float> q(8, 0.0f);
  VectorSearchRequest request;
  request.attrs = {{"Doc", "emb"}};
  request.query = q.data();
  request.k = 8;
  auto result = db_->embeddings()->RangeSearch(request, /*threshold=*/50.0f);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->quant_segments, 0u);
  for (const SearchHit& h : result->hits) {
    std::vector<float> stored(8);
    ASSERT_TRUE(
        db_->embeddings()->GetEmbedding("Doc", "emb", h.label, stored.data()).ok());
    EXPECT_FLOAT_EQ(h.distance,
                    ComputeDistance(Metric::kL2, q.data(), stored.data(), 8));
    EXPECT_LT(h.distance, 50.0f);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: searches racing merge-triggered requantization. Run under
// TSan in CI; the assertions here are soundness (exact reported distances)
// and termination, not recall.
// ---------------------------------------------------------------------------

TEST(QuantConcurrencyTest, SearchesRaceRequantization) {
  const size_t dim = 16;
  HnswParams params;
  params.dim = dim;
  params.metric = Metric::kL2;
  params.max_elements = 4096;
  params.sq8 = true;
  HnswIndex index(params);
  Rng seed_rng(51);
  std::vector<std::vector<float>> rows;
  for (int i = 0; i < 256; ++i) {
    rows.push_back(RandomVec(&seed_rng, dim, 4.0f));
    ASSERT_TRUE(index.AddPoint(i, rows.back().data()).ok());
  }
  ASSERT_TRUE(index.TrainQuantization().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> searches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load(std::memory_order_acquire)) {
        auto q = RandomVec(&rng, dim, 4.0f);
        simd::ScopedQuantQuery quant(true, 3);
        auto hits = index.TopKSearch(q.data(), 5, 32, FilterView());
        EXPECT_LE(hits.size(), 5u);
        for (const SearchHit& h : hits) {
          EXPECT_TRUE(std::isfinite(h.distance));
        }
        searches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Interleave inserts (growing the un-encoded suffix) with retraining
  // (swapping in a fresh tier), as the vacuum's IndexMerge does.
  Rng ins_rng(52);
  for (int round = 0; round < 20; ++round) {
    for (int j = 0; j < 32; ++j) {
      auto v = RandomVec(&ins_rng, dim, 4.0f);
      ASSERT_TRUE(index.AddPoint(256 + round * 32 + j, v.data()).ok());
    }
    ASSERT_TRUE(index.TrainQuantization().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  EXPECT_GT(searches.load(), 0u);
  EXPECT_TRUE(index.quant_active());
}

}  // namespace
}  // namespace tigervector
