#include "tests/fuzz/fuzz_harness.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "baseline/di_engine.h"
#include "baseline/navigational_engine.h"
#include "baseline/region_engine.h"
#include "baseline/twigstack_engine.h"
#include "common/random.h"
#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "nok/xpath_parser.h"
#include "tests/oracle.h"
#include "tests/test_util.h"
#include "xml/dom.h"
#include "xml/serializer.h"

namespace nok {
namespace fuzz {

namespace {

std::vector<std::string> CanonDewey(const std::vector<DeweyId>& ids) {
  std::vector<std::string> out;
  for (const DeweyId& id : ids) out.push_back(id.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> CanonIndexes(
    const std::vector<const DomNode*>& doc_order,
    const std::vector<uint32_t>& indexes) {
  std::vector<std::string> out;
  for (uint32_t i : indexes) {
    out.push_back(i < doc_order.size()
                      ? DomDewey(doc_order[i]).ToString()
                      : "<index out of range: " + std::to_string(i) + ">");
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Join(const std::vector<std::string>& items) {
  std::string out = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "}";
}

/// Records a mismatch unless the engine outcome matches the oracle.
/// NotSupported is an acceptable typed rejection; other errors and
/// wrong result sets are reported.
void Judge(const std::string& engine, const std::string& query,
           const std::vector<std::string>& want, const Status& status,
           const std::vector<std::string>& got,
           std::vector<Mismatch>* out) {
  if (!status.ok()) {
    if (!status.IsNotSupported()) {
      out->push_back({engine, query, "status: " + status.ToString()});
    }
    return;
  }
  if (got != want) {
    out->push_back(
        {engine, query, "want " + Join(want) + " got " + Join(got)});
  }
}

/// Pads the root to `fanout` children with leaves named like its element
/// children, spread at seeded positions among them.  The wide root
/// carries Dewey resolution past the BP index's child samples (one per
/// 64 children) while the document stays small enough for the oracle.
std::string WidenRoot(const std::string& xml, size_t fanout, Random* rng) {
  auto dom = DomTree::Parse(xml);
  if (!dom.ok()) return xml;
  DomNode* root = dom->mutable_root();
  auto& children = root->children;
  size_t first = 0;  // Attribute nodes stay in front.
  while (first < children.size() && children[first]->is_attribute()) ++first;
  std::vector<std::string> names;
  for (size_t i = first; i < children.size(); ++i) {
    names.push_back(children[i]->name);
  }
  if (names.empty()) return xml;
  while (children.size() - first < fanout) {
    auto pad = std::make_unique<DomNode>();
    pad->name = names[rng->Uniform(names.size())];
    pad->parent = root;
    const size_t at = first + rng->Uniform(children.size() - first + 1);
    children.insert(children.begin() + static_cast<long>(at),
                    std::move(pad));
  }
  dom->Renumber();
  return SerializeTree(*dom);
}

}  // namespace

FuzzCase GenerateCase(uint64_t seed) {
  Random rng(seed * 0x9e3779b97f4a7c15ull + 1);
  FuzzCase out;
  out.seed = seed;

  GeneratedDataset ds;
  const uint64_t family = rng.Uniform(4);
  if (family <= 1) {
    // Deep-recursion parts document (the dominant family).
    RecursiveGenOptions options;
    options.seed = rng.Next();
    options.entries = 2 + rng.Uniform(5);
    options.max_depth = 4 + static_cast<int>(rng.Uniform(8));
    options.fanout = 2 + static_cast<int>(rng.Uniform(2));
    options.skew = 0.3 + 0.6 * rng.NextDouble();
    ds = GenerateRecursiveDataset(options);
    out.name = "parts-deep";
  } else {
    // Scale-zero Table 1 documents for schema variety.
    const Dataset all[] = {Dataset::kAuthor, Dataset::kCatalog,
                           Dataset::kTreebank, Dataset::kDblp};
    const Dataset dataset = all[rng.Uniform(4)];
    GenOptions options;
    options.scale = 0.0;  // Generators floor at 8 entries.
    options.seed = rng.Next();
    ds = GenerateDataset(dataset, options);
    out.name = ds.name;
  }
  out.xml = ds.xml;

  RandomQueryOptions queries;
  queries.seed = rng.Next();
  queries.count = 6 + rng.Uniform(5);
  queries.max_steps = 4;
  queries.max_branches = 2;
  // Half the cases mix in tags absent from every dataset, exercising the
  // planner's schema-impossible pruning (EmptyResult plans) against the
  // oracle's genuinely empty answers.
  if (rng.Bernoulli(0.5)) queries.absent_bias = 0.15;
  out.queries = RandomQueries(ds, queries);

  // An eighth of the cases get a root with 65-300 children.  The choice
  // draws from its own stream, so every other case stays exactly as
  // earlier versions of the generator produced it.
  Random wide_rng(seed * 0xc2b2ae3d27d4eb4full + 7);
  if (wide_rng.Uniform(8) == 0) {
    out.xml = WidenRoot(out.xml, 65 + wide_rng.Uniform(236), &wide_rng);
    out.name += "-wide";
  }
  return out;
}

std::vector<Mismatch> CheckCase(const FuzzCase& fuzz_case,
                                const ExtraEngine* extra) {
  std::vector<Mismatch> out;

  auto dom = DomTree::Parse(fuzz_case.xml);
  if (!dom.ok()) {
    out.push_back({"harness", "", "DOM parse: " + dom.status().ToString()});
    return out;
  }
  auto interval = IntervalDocument::Build(fuzz_case.xml);
  if (!interval.ok()) {
    out.push_back(
        {"harness", "", "interval: " + interval.status().ToString()});
    return out;
  }
  std::vector<const DomNode*> doc_order;
  ForEachNode(dom->root(),
              [&](const DomNode* n) { doc_order.push_back(n); });

  DiEngine di(&*interval);
  TwigStackEngine twig(&*interval);
  NavigationalEngine nav(&*dom);
  RegionEngine region(&*interval);

  // Store matrix: {paged, bp navigation}, small pages so paging is real.
  // The paged store is also queried without the synopsis, which pins the
  // planner's flat-estimate fallback: three configs cover all
  // engine-visible combinations.
  struct StoreConfig {
    size_t store;  ///< Index into nav_modes / stores.
    bool synopsis;
    const char* suffix;
  };
  const NavMode nav_modes[] = {NavMode::kPaged, NavMode::kBp};
  const StoreConfig configs[] = {
      {0, true, ""},
      {1, true, " bp"},
      {0, false, " nosyn"},
  };
  std::vector<std::unique_ptr<DocumentStore>> stores;
  for (const NavMode nav_mode : nav_modes) {
    DocumentStore::Options options;
    options.page_size = 512;
    options.nav_mode = nav_mode;
    auto store = DocumentStore::Build(fuzz_case.xml, options);
    if (!store.ok()) {
      out.push_back(
          {"harness", "", "store: " + store.status().ToString()});
      return out;
    }
    stores.push_back(std::move(store).ValueOrDie());
  }

  const StartStrategy strategies[] = {
      StartStrategy::kAuto, StartStrategy::kScan, StartStrategy::kTagIndex,
      StartStrategy::kValueIndex};

  for (const std::string& query : fuzz_case.queries) {
    auto pattern = ParseXPath(query);
    if (!pattern.ok()) continue;  // Shrunk queries may degenerate.

    auto oracle = OracleEvaluateDewey(query, *dom);
    if (!oracle.ok()) {
      if (!oracle.status().IsNotSupported()) {
        out.push_back(
            {"oracle", query, "status: " + oracle.status().ToString()});
      }
      continue;
    }
    const std::vector<std::string> want = CanonDewey(*oracle);

    {
      auto r = di.Evaluate(*pattern);
      Judge("di", query, want, r.status(),
            r.ok() ? CanonIndexes(doc_order, *r)
                   : std::vector<std::string>{},
            &out);
    }
    {
      auto r = twig.Evaluate(*pattern);
      Judge("twigstack", query, want, r.status(),
            r.ok() ? CanonIndexes(doc_order, *r)
                   : std::vector<std::string>{},
            &out);
    }
    {
      auto r = nav.Evaluate(*pattern);
      std::vector<std::string> got;
      if (r.ok()) {
        for (const DomNode* n : *r) got.push_back(DomDewey(n).ToString());
        std::sort(got.begin(), got.end());
      }
      Judge("nav", query, want, r.status(), got, &out);
    }
    {
      auto r = region.Evaluate(*pattern);
      Judge("region", query, want, r.status(),
            r.ok() ? CanonIndexes(doc_order, *r)
                   : std::vector<std::string>{},
            &out);
    }
    if (extra != nullptr) {
      auto r = extra->eval(*pattern, *interval);
      Judge(extra->name, query, want, r.status(),
            r.ok() ? CanonIndexes(doc_order, *r)
                   : std::vector<std::string>{},
            &out);
    }

    // NoK engine matrix: store knobs x strategy x {plan cache off, on,
    // every eligible `//` arc forced top-down}.
    for (const StoreConfig& config : configs) {
      QueryEngine engine(stores[config.store].get());
      for (StartStrategy strategy : strategies) {
        QueryOptions qo;
        qo.strategy = strategy;
        qo.use_synopsis = config.synopsis;
        const std::string name =
            std::string("nok ") + StrategyName(strategy) + config.suffix;
        for (bool cache : {false, true}) {
          qo.use_plan_cache = cache;
          auto r = engine.Evaluate(query, qo);
          Judge(name + (cache ? " cache" : ""), query, want, r.status(),
                r.ok() ? CanonDewey(*r) : std::vector<std::string>{},
                &out);
        }
        qo.use_plan_cache = false;
        auto r = testutil::EvaluateWithArcDirection(
            stores[config.store].get(), query, qo, ArcDirection::kTopDown);
        Judge(name + " top-down", query, want, r.status(),
              r.ok() ? CanonDewey(*r) : std::vector<std::string>{}, &out);
      }
    }
  }
  return out;
}

namespace {

/// Does this (xml, query) pair still produce any mismatch?
bool StillFails(const std::string& xml, const std::string& query,
                const ExtraEngine* extra, Mismatch* latest) {
  FuzzCase c;
  c.xml = xml;
  c.queries = {query};
  auto mismatches = CheckCase(c, extra);
  if (mismatches.empty()) return false;
  *latest = mismatches.front();
  return true;
}

/// One pass of subtree deletion attempts; returns true if any node was
/// removed.  `budget` caps the total number of re-checks.
bool ShrinkDomPass(DomTree* dom, const std::string& query,
                   const ExtraEngine* extra, Mismatch* latest,
                   int* budget) {
  // Collect mutable nodes (skip the root).
  std::vector<DomNode*> nodes;
  std::function<void(DomNode*)> collect = [&](DomNode* n) {
    for (auto& child : n->children) {
      nodes.push_back(child.get());
      collect(child.get());
    }
  };
  collect(dom->mutable_root());

  bool removed_any = false;
  // Reverse document order: leaves first keeps parents removable later.
  for (size_t i = nodes.size(); i-- > 0 && *budget > 0;) {
    DomNode* victim = nodes[i];
    DomNode* parent = victim->parent;
    if (parent == nullptr) continue;
    auto it = std::find_if(
        parent->children.begin(), parent->children.end(),
        [&](const std::unique_ptr<DomNode>& c) {
          return c.get() == victim;
        });
    if (it == parent->children.end()) continue;  // Already removed.
    std::unique_ptr<DomNode> detached = std::move(*it);
    parent->children.erase(it);
    --*budget;
    if (StillFails(SerializeTree(*dom), query, extra, latest)) {
      removed_any = true;  // Keep the deletion (and its whole subtree).
      // Drop the detached subtree's descendants from `nodes`: find_if
      // above already tolerates stale pointers, so nothing else needed.
      const size_t subtree = 0;
      (void)subtree;
    } else {
      parent->children.insert(
          parent->children.begin() +
              static_cast<long>(std::min<size_t>(
                  victim->child_index, parent->children.size())),
          std::move(detached));
    }
  }
  return removed_any;
}

/// Candidate simplified queries: each predicate block dropped, then each
/// trailing step dropped (quote-aware scanning).
std::vector<std::string> SimplerQueries(const std::string& query) {
  std::vector<std::string> out;
  // Top-level bracket blocks.
  int depth = 0;
  bool in_literal = false;
  char quote = 0;
  size_t open = 0;
  std::vector<std::pair<size_t, size_t>> blocks;
  std::vector<size_t> separators;  // '/' positions at depth 0.
  for (size_t i = 0; i < query.size(); ++i) {
    const char c = query[i];
    if (in_literal) {
      if (c == quote) in_literal = false;
      continue;
    }
    if (c == '"' || c == '\'') {
      in_literal = true;
      quote = c;
    } else if (c == '[') {
      if (depth == 0) open = i;
      ++depth;
    } else if (c == ']') {
      --depth;
      if (depth == 0) blocks.emplace_back(open, i);
    } else if (c == '/' && depth == 0 && i > 0) {
      separators.push_back(i);
    }
  }
  for (auto [from, to] : blocks) {
    out.push_back(query.substr(0, from) + query.substr(to + 1));
  }
  for (size_t sep : separators) {
    size_t cut = sep;
    if (cut > 0 && query[cut - 1] == '/') --cut;  // '//' separator.
    if (cut > 1) out.push_back(query.substr(0, cut));
  }
  return out;
}

}  // namespace

ReproCase Shrink(const FuzzCase& fuzz_case, const Mismatch& mismatch,
                 const ExtraEngine* extra) {
  ReproCase repro;
  repro.seed = fuzz_case.seed;
  repro.engine = mismatch.engine;
  repro.detail = mismatch.detail;
  repro.query = mismatch.query;
  repro.xml = fuzz_case.xml;

  Mismatch latest = mismatch;

  // Query shrink first (a simpler query often unlocks more subtree
  // deletions), then document shrink, then one more query pass.
  for (int round = 0; round < 2; ++round) {
    bool simplified = true;
    while (simplified) {
      simplified = false;
      for (const std::string& candidate : SimplerQueries(repro.query)) {
        if (ParseXPath(candidate).ok() &&
            StillFails(repro.xml, candidate, extra, &latest)) {
          repro.query = candidate;
          simplified = true;
          break;
        }
      }
    }

    auto dom = DomTree::Parse(repro.xml);
    if (!dom.ok()) break;
    int budget = 600;
    while (budget > 0 &&
           ShrinkDomPass(&*dom, repro.query, extra, &latest, &budget)) {
    }
    dom->Renumber();
    const std::string shrunk = SerializeTree(*dom);
    if (StillFails(shrunk, repro.query, extra, &latest)) {
      repro.xml = shrunk;
    }
  }

  repro.engine = latest.engine;
  repro.detail = latest.detail;
  return repro;
}

std::vector<Mismatch> Replay(const ReproCase& repro,
                             const ExtraEngine* extra) {
  FuzzCase c;
  c.seed = repro.seed;
  c.name = "repro";
  c.xml = repro.xml;
  c.queries = {repro.query};
  return CheckCase(c, extra);
}

std::string FormatRepro(const ReproCase& repro) {
  std::string out = "# nok-fuzz repro v1\n";
  out += "# seed: " + std::to_string(repro.seed) + "\n";
  out += "# engine: " + repro.engine + "\n";
  out += "# detail: " + repro.detail + "\n";
  out += "# query: " + repro.query + "\n";
  out += repro.xml;
  out += '\n';
  return out;
}

Result<ReproCase> ParseRepro(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "# nok-fuzz repro v1") {
    return Status::ParseError("not a nok-fuzz repro v1 file");
  }
  ReproCase repro;
  while (in.peek() == '#' && std::getline(in, line)) {
    const auto take = [&](const char* prefix,
                          std::string* field) -> bool {
      const size_t n = std::string(prefix).size();
      if (line.compare(0, n, prefix) != 0) return false;
      *field = line.substr(n);
      return true;
    };
    std::string seed;
    if (take("# seed: ", &seed)) {
      repro.seed = strtoull(seed.c_str(), nullptr, 10);
    } else if (take("# engine: ", &repro.engine) ||
               take("# detail: ", &repro.detail) ||
               take("# query: ", &repro.query)) {
    }
  }
  if (repro.query.empty()) {
    return Status::ParseError("repro file has no '# query:' header");
  }
  std::string xml, rest;
  while (std::getline(in, rest)) {
    xml += rest;
    xml += '\n';
  }
  while (!xml.empty() && xml.back() == '\n') xml.pop_back();
  if (xml.empty()) {
    return Status::ParseError("repro file has no XML body");
  }
  repro.xml = std::move(xml);
  return repro;
}

Status WriteRepro(const std::string& path, const ReproCase& repro) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  out << FormatRepro(repro);
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Result<ReproCase> LoadRepro(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseRepro(buffer.str());
}

}  // namespace fuzz
}  // namespace nok
