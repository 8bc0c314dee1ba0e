// Workload inputs, setup, the open-loop writer and the answer oracle.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "util/rng.h"
#include "workload/datasets.h"

namespace tigervector::perfbench {

namespace {

constexpr size_t kDocs = 20000;
constexpr size_t kDocDim = 128;
constexpr int kCategories = 10;
constexpr size_t kExtraRows = 24576;  // vectors the writer upserts
constexpr size_t kHotPool = 256;
constexpr size_t kLoadBatch = 1000;
constexpr size_t kInsertCapacity = 1 << 16;
constexpr size_t kK = 10;
constexpr float kQueryNoise = 8.0f;

const WorkloadSpec kWorkloads[] = {
    {WorkloadKind::kDocTopK, "doc_topk", true},
    {WorkloadKind::kHotTopK, "hot_topk", true},
    {WorkloadKind::kGraphHybrid, "graph_hybrid", false},
    {WorkloadKind::kIngestMixed, "ingest_mixed", true},
};

uint64_t MixSeed(uint64_t a, uint64_t b) {
  return cache::Mix64(a ^ cache::Mix64(b + 0x632be59bd9b4e019ULL));
}

SnbConfig SnbFor(uint64_t seed) {
  SnbConfig config;
  config.num_persons = 2000;
  config.embedding_dim = 64;
  config.comments_per_post = 1;
  config.seed = MixSeed(seed, 17) % 1000003;
  return config;
}

// A query vector near a corpus row: the row plus Gaussian noise.
std::vector<float> NearRow(const float* row, size_t dim, Rng& rng) {
  std::vector<float> qv(row, row + dim);
  for (float& x : qv) x += rng.NextGaussian() * kQueryNoise;
  return qv;
}

// Near a random post of the loaded graph (its rows do not change while
// queries are generated).
std::vector<float> NearPost(const Corpus& corpus, Rng& rng) {
  const VertexId vid = corpus.searchable[rng.NextBounded(corpus.searchable.size())];
  return NearRow(corpus.rows[vid].data(), corpus.dim, rng);
}

std::string TopKScript(const std::string& where) {
  return "R = SELECT s FROM (s:Doc)" + where +
         " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10; PRINT R; PRINT @@R_dist;";
}

// Doc queries start from the generated rows, never from the oracle's copy,
// which the ingest_mixed writer updates while readers generate queries.
Query MakeDocQuery(const Inputs& inputs, Rng& rng, bool filtered) {
  Query q;
  q.qv = NearRow(inputs.base.data() + rng.NextBounded(kDocs) * kDocDim, kDocDim, rng);
  if (filtered) {
    q.shape = Shape::kFiltered;
    q.category = static_cast<int64_t>(rng.NextBounded(kCategories));
    q.script = TopKScript(" WHERE s.category == $c");
    q.params["c"] = q.category;
  } else {
    q.shape = Shape::kTopK;
    q.script = TopKScript("");
  }
  q.params["qv"] = q.qv;
  return q;
}

Query MakeGraphQuery(const Corpus& corpus, Rng& rng) {
  Query q;
  const uint64_t pick = rng.NextBounded(10);
  if (pick < 3) {
    q.shape = Shape::kPattern;
    q.person = rng.NextBounded(corpus.person_vids.size());
    q.script = "R = SELECT t FROM (s:Person) -[:knows]- (:Person) <-[:hasCreator]-"
               " (t:Post) WHERE s.lastName == \"P" +
               std::to_string(q.person) +
               "\" ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 10;"
               " PRINT R; PRINT @@R_dist;";
  } else if (pick < 6) {
    q.shape = Shape::kLanguage;
    q.language = rng.NextBounded(5);
    q.script = std::string("R = SELECT s FROM (s:Post) WHERE s.language == \"") +
               kLanguages[q.language] +
               "\" ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10;"
               " PRINT R; PRINT @@R_dist;";
  } else if (pick < 8) {
    q.shape = Shape::kRange;
    q.radius = corpus.range_radius;
    q.script = "R = SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < $r;"
               " PRINT R;";
    q.params["r"] = q.radius;
  } else {
    q.shape = Shape::kJoin;
    q.person = rng.NextBounded(corpus.person_vids.size());
    q.script = "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person) -[:knows]-"
               " (v:Person) <-[:hasCreator]- (t:Post) WHERE u.lastName == \"P" +
               std::to_string(q.person) +
               "\" ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 10;";
    return q;
  }
  q.qv = NearPost(corpus, rng);
  q.params["qv"] = q.qv;
  return q;
}

std::vector<float> RowOf(const std::vector<float>& flat, size_t i, size_t dim) {
  return std::vector<float>(flat.begin() + i * dim, flat.begin() + (i + 1) * dim);
}

bool MatchesPredicate(const Corpus& corpus, const Query& q, VertexId vid) {
  switch (q.shape) {
    case Shape::kTopK:
      return corpus.CategoryOf(vid) >= 0;
    case Shape::kFiltered:
      return corpus.CategoryOf(vid) == q.category;
    case Shape::kLanguage:
      return vid < corpus.language.size() && corpus.language[vid] == q.language;
    case Shape::kRange:
      return vid < corpus.language.size() && corpus.language[vid] != 255;
    case Shape::kPattern:
    case Shape::kJoin: {
      const auto cand = corpus.PatternCandidates(q.person);
      return std::find(cand.begin(), cand.end(), vid) != cand.end();
    }
  }
  return false;
}

// Vids the shape's predicate admits, scanned over the generated corpus.
std::vector<VertexId> Candidates(const Corpus& corpus, const Query& q) {
  if (q.shape == Shape::kPattern) return corpus.PatternCandidates(q.person);
  std::vector<VertexId> out;
  for (VertexId vid : corpus.searchable) {
    if (MatchesPredicate(corpus, q, vid)) out.push_back(vid);
  }
  return out;
}

bool DistanceMatches(float reported, float exact) {
  return std::fabs(reported - exact) <= 1e-4f * std::max(1.0f, std::fabs(exact));
}

}  // namespace

const char* const kLanguages[5] = {"English", "Chinese", "Spanish", "German", "Hindi"};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  return values[std::clamp<size_t>(static_cast<size_t>(rank), 1, values.size()) - 1];
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kTopK: return "topk";
    case Shape::kFiltered: return "filtered";
    case Shape::kPattern: return "pattern";
    case Shape::kLanguage: return "language";
    case Shape::kRange: return "range";
    case Shape::kJoin: return "join";
  }
  return "?";
}

int64_t Corpus::CategoryOf(VertexId vid) const {
  if (vid < category.size()) return category[vid];
  if (vid >= inserted_base && vid - inserted_base < inserted_capacity) {
    return inserted_category[vid - inserted_base].load(std::memory_order_relaxed);
  }
  return -1;
}

std::vector<VertexId> Corpus::PatternCandidates(size_t person) const {
  std::vector<VertexId> out;
  for (size_t f : friends[person]) {
    out.insert(out.end(), posts_by[f].begin(), posts_by[f].end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

float ExactDistance(const float* a, const float* b, size_t dim) {
  double sum = 0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return static_cast<float>(sum);
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.spec = &spec;
  in.seed = seed;
  Rng rng(MixSeed(seed, 1));
  if (spec.doc_corpus) {
    VectorDataset ds = MakeSiftLike(kDocs + kExtraRows, 0, MixSeed(seed, 2));
    in.base.assign(ds.base.begin(), ds.base.begin() + kDocs * kDocDim);
    in.extra.assign(ds.base.begin() + kDocs * kDocDim, ds.base.end());
    in.base_category.resize(kDocs);
    for (int8_t& c : in.base_category) c = static_cast<int8_t>(rng.NextBounded(kCategories));
    if (spec.kind == WorkloadKind::kHotTopK) {
      double total = 0;
      for (size_t i = 0; i < kHotPool; ++i) {
        // The shape is fixed by Zipf rank, so every seed sends the same
        // share of filtered queries (about 30% of the traffic).
        in.hot_pool.push_back(MakeDocQuery(in, rng, i % 3 == 1));
        total += 1.0 / static_cast<double>(i + 1);
      }
      double acc = 0;
      for (size_t i = 0; i < kHotPool; ++i) {
        acc += 1.0 / static_cast<double>(i + 1) / total;
        in.hot_cdf.push_back(acc);
      }
    }
  } else {
    const SnbConfig snb = SnbFor(seed);
    VectorDataset ds = MakeSiftLikeWithDim(snb.embedding_dim, kExtraRows, 0, MixSeed(seed, 3));
    in.extra = std::move(ds.base);
  }
  return in;
}

Query QueryStream::Next() {
  Rng rng(MixSeed(MixSeed(inputs_.seed, 100 + stream_), index_++));
  if (inputs_.spec->kind == WorkloadKind::kHotTopK) {
    const double u = rng.NextDouble();
    const size_t i = std::upper_bound(inputs_.hot_cdf.begin(), inputs_.hot_cdf.end(), u) -
                     inputs_.hot_cdf.begin();
    return inputs_.hot_pool[std::min(i, inputs_.hot_pool.size() - 1)];
  }
  if (!inputs_.spec->doc_corpus) return MakeGraphQuery(corpus_, rng);
  return MakeDocQuery(inputs_, rng, rng.NextBounded(10) < 3);
}

Status CreateSchema(Database* db, const Inputs& inputs) {
  if (!inputs.spec->doc_corpus) return CreateSnbSchema(db, SnbFor(inputs.seed));
  Schema* schema = db->schema();
  TV_RETURN_NOT_OK(schema->CreateVertexType("Doc", {{"category", AttrType::kInt}}).status());
  EmbeddingTypeInfo info;
  info.dimension = kDocDim;
  info.model = "SIFT";
  info.index = VectorIndexType::kHnsw;
  info.data_type = VectorDataType::kFloat32;
  info.metric = Metric::kL2;
  TV_RETURN_NOT_OK(schema->CreateEmbeddingSpace("doc_space", info));
  return schema->AddEmbeddingAttrInSpace("Doc", "emb", "doc_space");
}

namespace {

// Fills the oracle's view of the SNB graph: structure read back once from
// the store, embeddings regenerated exactly as LoadSnb generated them.
void FillSnbCorpus(const Database& db, const SnbStats& stats, const Inputs& inputs,
                   Corpus* corpus) {
  const GraphStore& store = *db.store();
  const Tid tid = store.visible_tid();
  const SnbConfig snb = SnbFor(inputs.seed);
  corpus->dim = snb.embedding_dim;
  corpus->vtype = "Post";
  corpus->attr = "content_emb";
  corpus->person_vids = stats.persons;
  const size_t messages = snb.num_persons * snb.posts_per_person * (1 + snb.comments_per_post);
  VectorDataset vectors = MakeSiftLikeWithDim(snb.embedding_dim, messages, 0, snb.seed + 1);
  const VertexId upper = store.vid_upper_bound();
  corpus->rows.assign(upper + kInsertCapacity, {});
  corpus->language.assign(upper + kInsertCapacity, 255);
  for (size_t i = 0; i < stats.posts.size(); ++i) {
    const VertexId vid = stats.posts[i];
    corpus->rows[vid] = RowOf(vectors.base, i, snb.embedding_dim);
    corpus->searchable.push_back(vid);
    auto lang = store.GetAttr(vid, "language", tid);
    const std::string* s = lang.ok() ? std::get_if<std::string>(&*lang) : nullptr;
    for (uint8_t l = 0; l < 5 && s != nullptr; ++l) {
      if (*s == kLanguages[l]) corpus->language[vid] = l;
    }
  }
  std::unordered_map<VertexId, size_t> person_index;
  for (size_t i = 0; i < stats.persons.size(); ++i) person_index[stats.persons[i]] = i;
  const EdgeTypeId knows = (*db.schema()->GetEdgeType("knows"))->id;
  const EdgeTypeId creator = (*db.schema()->GetEdgeType("hasCreator"))->id;
  corpus->friends.assign(stats.persons.size(), {});
  corpus->posts_by.assign(stats.persons.size(), {});
  for (size_t i = 0; i < stats.persons.size(); ++i) {
    std::set<size_t> friends;
    store.ForEachNeighbor(stats.persons[i], knows, Direction::kAny, tid, [&](VertexId peer) {
      auto it = person_index.find(peer);
      if (it != person_index.end() && it->second != i) friends.insert(it->second);
    });
    corpus->friends[i].assign(friends.begin(), friends.end());
    store.ForEachNeighbor(stats.persons[i], creator, Direction::kIn, tid, [&](VertexId m) {
      if (m < corpus->language.size() && corpus->language[m] != 255) {
        corpus->posts_by[i].push_back(m);
      }
    });
  }
  // Range radius: the median exact 10th-nearest distance of a fixed set of
  // calibration queries, so a range query returns about ten posts.
  Rng rng(MixSeed(inputs.seed, 4));
  std::vector<double> tenth;
  for (int c = 0; c < 64; ++c) {
    const std::vector<float> qv = NearPost(*corpus, rng);
    std::vector<double> d;
    for (VertexId vid : corpus->searchable) {
      d.push_back(ExactDistance(qv.data(), corpus->rows[vid].data(), corpus->dim));
    }
    std::nth_element(d.begin(), d.begin() + (kK - 1), d.end());
    tenth.push_back(d[kK - 1]);
  }
  corpus->range_radius = Median(tenth);
}

}  // namespace

Result<Served> Setup(const Inputs& inputs, const std::string& wal_path, Corpus* corpus) {
  Served served;
  served.wal_path = wal_path;
  const Clock::time_point t0 = Clock::now();
  Database::Options options;
  options.store.wal_path = wal_path;
  options.store.wal_sync = false;
  served.db = std::make_unique<Database>(options);
  Database* db = served.db.get();
  TV_RETURN_NOT_OK(CreateSchema(db, inputs));
  std::vector<VertexId> vids;
  SnbStats stats;
  if (inputs.spec->doc_corpus) {
    for (size_t begin = 0; begin < kDocs; begin += kLoadBatch) {
      Transaction txn = db->Begin();
      for (size_t i = begin; i < std::min(kDocs, begin + kLoadBatch); ++i) {
        auto vid = txn.InsertVertex("Doc", {int64_t{inputs.base_category[i]}});
        if (!vid.ok()) return vid.status();
        TV_RETURN_NOT_OK(txn.SetEmbedding(*vid, "Doc", "emb", RowOf(inputs.base, i, kDocDim)));
        vids.push_back(*vid);
      }
      TV_RETURN_NOT_OK(txn.Commit().status());
    }
  } else {
    // LoadSnb commits and then vacuums internally, so for the graph its
    // index build is part of load_s and the Vacuum below finds no work.
    TV_RETURN_NOT_OK(LoadSnb(db, SnbFor(inputs.seed), &stats));
  }
  const Clock::time_point t1 = Clock::now();
  TV_RETURN_NOT_OK(db->Vacuum().status());
  const Clock::time_point t2 = Clock::now();
  server::ServerOptions server_options;
  server_options.port = 0;
  served.server = std::make_unique<server::TvServer>(db, server_options);
  TV_RETURN_NOT_OK(served.server->Start());
  const Clock::time_point t3 = Clock::now();
  served.load_s = std::chrono::duration<double>(t1 - t0).count();
  served.build_s = std::chrono::duration<double>(t2 - t1).count();
  served.setup_s = std::chrono::duration<double>(t3 - t0).count();

  if (corpus == nullptr) return served;
  if (inputs.spec->doc_corpus) {
    corpus->dim = kDocDim;
    corpus->vtype = "Doc";
    corpus->attr = "emb";
    corpus->inserted_base = db->store()->vid_upper_bound();
    corpus->inserted_capacity = kInsertCapacity;
    corpus->inserted_category = std::make_unique<std::atomic<int8_t>[]>(kInsertCapacity);
    for (size_t i = 0; i < kInsertCapacity; ++i) corpus->inserted_category[i] = -1;
    corpus->rows.assign(corpus->inserted_base + kInsertCapacity, {});
    corpus->category.assign(corpus->inserted_base, -1);
    for (size_t i = 0; i < vids.size(); ++i) {
      corpus->rows[vids[i]] = RowOf(inputs.base, i, kDocDim);
      corpus->category[vids[i]] = inputs.base_category[i];
      corpus->searchable.push_back(vids[i]);
    }
  } else {
    FillSnbCorpus(*db, stats, inputs, corpus);
  }
  return served;
}

Verdict CheckAnswer(const Corpus& corpus, const Query& q, const ScriptResult& result,
                    bool check_distances) {
  auto fail = [](std::string why) { return Verdict{false, std::move(why)}; };
  if (q.shape == Shape::kJoin) {
    const auto targets = corpus.PatternCandidates(q.person);
    const auto& sources = corpus.posts_by[q.person];
    if (result.last_join_pairs.size() > kK) return fail("join: more than k pairs");
    for (const auto& p : result.last_join_pairs) {
      if (std::find(sources.begin(), sources.end(), p.source) == sources.end() ||
          !std::binary_search(targets.begin(), targets.end(), p.target)) {
        return fail("join: pair outside the pattern");
      }
      if (check_distances &&
          !DistanceMatches(p.distance, ExactDistance(corpus.rows[p.source].data(),
                                                     corpus.rows[p.target].data(),
                                                     corpus.dim))) {
        return fail("join: wrong distance");
      }
    }
    return {};
  }
  if (result.prints.empty()) return fail("no PRINT output");
  const std::vector<VertexId>& ids = result.prints[0].vertices;
  for (VertexId vid : ids) {
    if (!MatchesPredicate(corpus, q, vid)) return fail("hit violates the predicate");
  }
  if (q.shape == Shape::kRange) {
    for (VertexId vid : ids) {
      if (check_distances &&
          ExactDistance(q.qv.data(), corpus.rows[vid].data(), corpus.dim) >=
              q.radius * (1 + 1e-4)) {
        return fail("range: hit beyond the radius");
      }
    }
    return {};
  }
  // A short answer is sound but incomplete: filtered HNSW search can return
  // fewer than k hits, and recall@10 scores that. More than k is wrong.
  if (ids.size() > kK) return fail("top-k: more than k hits");
  // With no hits the session does not reassign @@R_dist, so its map is the
  // previous query's and there is nothing to compare.
  if (ids.empty()) return {};
  if (result.prints.size() < 2 || result.prints[1].distances.size() != ids.size()) {
    return fail("top-k: distance map does not match the hits");
  }
  for (VertexId vid : ids) {
    auto it = result.prints[1].distances.find(vid);
    if (it == result.prints[1].distances.end()) return fail("top-k: hit without distance");
    if (check_distances &&
        !DistanceMatches(it->second,
                         ExactDistance(q.qv.data(), corpus.rows[vid].data(), corpus.dim))) {
      return fail("top-k: wrong distance");
    }
  }
  return {};
}

std::string SelfCheck(const Corpus& corpus,
                      const std::vector<std::pair<Query, ScriptResult>>& answers) {
  std::set<Shape> seen;
  for (const auto& [q, result] : answers) {
    if (!seen.insert(q.shape).second) continue;
    // A vid the shape's predicate rejects (one past every row when all match).
    VertexId outsider = corpus.rows.size();
    for (VertexId vid : corpus.searchable) {
      if (!MatchesPredicate(corpus, q, vid)) {
        outsider = vid;
        break;
      }
    }
    std::vector<ScriptResult> bad;
    if (q.shape == Shape::kJoin) {
      if (result.last_join_pairs.empty()) continue;
      bad.push_back(result);
      float& distance = bad.back().last_join_pairs[0].distance;
      distance = distance * 1.01f + 1;
      bad.push_back(result);
      bad.back().last_join_pairs[0].target = outsider;
    } else if (q.shape == Shape::kRange) {
      bad.push_back(result);
      bad.back().prints[0].vertices.push_back(outsider);
      for (VertexId vid : corpus.searchable) {
        if (ExactDistance(q.qv.data(), corpus.rows[vid].data(), corpus.dim) > 2 * q.radius) {
          bad.push_back(result);
          bad.back().prints[0].vertices.push_back(vid);
          auto& vertices = bad.back().prints[0].vertices;
          std::sort(vertices.begin(), vertices.end());
          break;
        }
      }
    } else {
      if (result.prints.size() < 2 || result.prints[0].vertices.empty()) continue;
      const VertexId first = result.prints[0].vertices[0];
      bad.push_back(result);
      auto& wrong_distance = bad.back().prints[1].distances[first];
      wrong_distance = wrong_distance * 1.01f + 1;
      bad.push_back(result);
      ScriptResult& swapped = bad.back();
      swapped.prints[0].vertices[0] = outsider;
      swapped.prints[1].distances[outsider] = swapped.prints[1].distances[first];
      swapped.prints[1].distances.erase(first);
    }
    for (const ScriptResult& r : bad) {
      if (CheckAnswer(corpus, q, r, /*check_distances=*/true).ok) {
        return std::string("checker accepted a corrupted ") + ShapeName(q.shape) + " answer";
      }
    }
  }
  return "";
}

bool ScoreAnswer(const Corpus& corpus, const Query& q, const ScriptResult& result,
                 double* recall, double* completeness) {
  if (q.shape == Shape::kJoin) {
    std::vector<std::pair<float, std::pair<VertexId, VertexId>>> all;
    const std::vector<VertexId> targets = corpus.PatternCandidates(q.person);
    for (VertexId s : corpus.posts_by[q.person]) {
      for (VertexId t : targets) {
        all.push_back({ExactDistance(corpus.rows[s].data(), corpus.rows[t].data(), corpus.dim),
                       {s, t}});
      }
    }
    if (all.empty()) return false;
    const size_t k = std::min(kK, all.size());
    std::partial_sort(all.begin(), all.begin() + k, all.end());
    size_t hit = 0;
    for (size_t i = 0; i < k; ++i) {
      for (const auto& p : result.last_join_pairs) {
        if (p.source == all[i].second.first && p.target == all[i].second.second) ++hit;
      }
    }
    *recall = static_cast<double>(hit) / static_cast<double>(k);
    return true;
  }
  if (result.prints.empty()) return false;
  const std::vector<VertexId>& ids = result.prints[0].vertices;
  std::vector<std::pair<float, VertexId>> exact;
  for (VertexId vid : Candidates(corpus, q)) {
    exact.push_back({ExactDistance(q.qv.data(), corpus.rows[vid].data(), corpus.dim), vid});
  }
  if (q.shape == Shape::kRange) {
    size_t want = 0, found = 0;
    for (const auto& [d, vid] : exact) {
      if (d >= q.radius * (1 - 1e-4)) continue;
      ++want;
      found += std::binary_search(ids.begin(), ids.end(), vid);
    }
    if (want == 0) return false;
    *completeness = static_cast<double>(found) / static_cast<double>(want);
    return true;
  }
  if (exact.empty()) return false;
  const size_t k = std::min(kK, exact.size());
  std::partial_sort(exact.begin(), exact.begin() + k, exact.end());
  size_t hit = 0;
  for (size_t i = 0; i < k; ++i) {
    hit += std::binary_search(ids.begin(), ids.end(), exact[i].second);
  }
  *recall = static_cast<double>(hit) / static_cast<double>(k);
  return true;
}

bool SameResult(const ScriptResult& a, const ScriptResult& b) {
  if (a.prints.size() != b.prints.size() ||
      a.last_join_pairs.size() != b.last_join_pairs.size()) {
    return false;
  }
  // With no hits a session prints its previous @@R_dist (see CheckAnswer),
  // which differs between sessions by history, so it is not compared.
  const bool no_hits = !a.prints.empty() && a.prints[0].vertices.empty();
  for (size_t i = 0; i < a.prints.size(); ++i) {
    const auto& x = a.prints[i];
    const auto& y = b.prints[i];
    if (x.name != y.name || x.vertices != y.vertices ||
        x.is_distance_map != y.is_distance_map) {
      return false;
    }
    if (x.is_distance_map && no_hits) continue;
    if (x.distances.size() != y.distances.size()) return false;
    for (const auto& [vid, d] : x.distances) {
      auto it = y.distances.find(vid);
      if (it == y.distances.end() || std::memcmp(&it->second, &d, sizeof d) != 0) return false;
    }
  }
  for (size_t i = 0; i < a.last_join_pairs.size(); ++i) {
    const auto& x = a.last_join_pairs[i];
    const auto& y = b.last_join_pairs[i];
    if (x.source != y.source || x.target != y.target ||
        std::memcmp(&x.distance, &y.distance, sizeof x.distance) != 0) {
      return false;
    }
  }
  return true;
}

WriterStats RunWriter(Database* db, const Inputs& inputs, Corpus* corpus,
                      const WriterConfig& config) {
  WriterStats stats;
  Rng rng(MixSeed(inputs.seed, config.seed));
  const size_t dim = corpus->dim;
  const size_t extra_rows = inputs.extra.size() / dim;
  const bool docs = inputs.spec->doc_corpus;
  size_t next_row = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < config.max_commits; ++i) {
    if (config.stop != nullptr && config.stop->load(std::memory_order_relaxed)) break;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / config.rate));
    // Sleep, then spin the last stretch: timer wake-up jitter is the
    // generator's own lateness, not a stall of the system under test.
    std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) {
    }
    stats.max_late_ms = std::max(stats.max_late_ms, SecondsSince(due) * 1e3);
    Transaction txn = db->Begin();
    std::vector<std::pair<VertexId, std::vector<float>>> writes;
    bool ok = true;
    for (size_t b = 0; b < config.batch && ok; ++b) {
      // Fresh draws from the corpus distribution, each used once per run.
      std::vector<float> value = RowOf(inputs.extra, next_row++ % extra_rows, dim);
      VertexId vid;
      if (rng.NextBounded(10) < 8) {
        vid = corpus->searchable[rng.NextBounded(corpus->searchable.size())];
      } else if (docs) {
        const int8_t category = static_cast<int8_t>(rng.NextBounded(kCategories));
        auto inserted = txn.InsertVertex("Doc", {int64_t{category}});
        ok = inserted.ok() && *inserted - corpus->inserted_base < corpus->inserted_capacity;
        if (!ok) break;
        vid = *inserted;
        corpus->inserted_category[vid - corpus->inserted_base].store(category);
      } else {
        const uint8_t language = static_cast<uint8_t>(rng.NextBounded(5));
        auto inserted = txn.InsertVertex(
            "Post", {std::string("new post"), std::string(kLanguages[language]),
                     int64_t{100}, int64_t{5'000'000} + static_cast<int64_t>(i), int64_t{0}});
        ok = inserted.ok() && *inserted < corpus->language.size();
        if (!ok) break;
        vid = *inserted;
        corpus->language[vid] = language;
      }
      ok = txn.SetEmbedding(vid, corpus->vtype, corpus->attr, value).ok();
      writes.emplace_back(vid, std::move(value));
    }
    const Clock::time_point commit_start = Clock::now();
    const bool committed = ok && txn.Commit().ok();
    stats.commit_us.push_back(SecondsSince(commit_start) * 1e6);
    stats.latency_ms.push_back(SecondsSince(due) * 1e3);
    if (!committed) {
      ++stats.failed;
      continue;
    }
    for (auto& [vid, value] : writes) {
      if (corpus->rows[vid].empty()) corpus->searchable.push_back(vid);
      corpus->rows[vid] = std::move(value);
      stats.acked.push_back(vid);
      ++stats.upserts;
    }
  }
  return stats;
}

size_t CheckDurability(const Served& served, const Inputs& inputs, const Corpus& corpus,
                       const std::vector<VertexId>& acked, size_t sample, std::string* why) {
  Database fresh;
  Status st = CreateSchema(&fresh, inputs);
  Database::RecoveryOptions options;
  options.wal_path = served.wal_path;
  options.truncate_torn_wal = false;
  if (st.ok()) st = fresh.Recover(options).status();
  if (!st.ok()) {
    *why = "recovery failed: " + st.ToString();
    return sample;
  }
  size_t failures = 0;
  std::unordered_set<VertexId> seen;
  std::vector<float> out(corpus.dim);
  for (auto it = acked.rbegin(); it != acked.rend() && seen.size() < sample; ++it) {
    if (!seen.insert(*it).second) continue;
    const std::vector<float>& want = corpus.rows[*it];
    if (!fresh.embeddings()->GetEmbedding(corpus.vtype, corpus.attr, *it, out.data()).ok() ||
        std::memcmp(out.data(), want.data(), want.size() * sizeof(float)) != 0) {
      ++failures;
      *why = "vertex " + std::to_string(*it) + " did not read back after recovery";
    }
  }
  return failures;
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace tigervector::perfbench
