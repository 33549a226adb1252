#include "tests/test_util.h"

#include "nok/executor.h"
#include "nok/physical_matcher.h"
#include "nok/xpath_parser.h"

namespace nok {
namespace testutil {

namespace {

std::string TagName(Random* rng, const RandomDocOptions& options) {
  return std::string(1, static_cast<char>('a' + rng->Uniform(
                                                    static_cast<uint64_t>(
                                                        options.tag_pool))));
}

std::string ValueText(Random* rng, const RandomDocOptions& options) {
  return "v" + std::to_string(rng->Uniform(
                   static_cast<uint64_t>(options.value_pool)));
}

void GenElement(Random* rng, const RandomDocOptions& options, int depth,
                size_t* budget, std::string* out) {
  if (*budget == 0) return;
  --*budget;
  const std::string tag = TagName(rng, options);
  *out += '<';
  *out += tag;
  if (rng->Bernoulli(options.attr_prob)) {
    *out += " k=\"" + ValueText(rng, options) + "\"";
    if (*budget > 0) --*budget;  // The attribute is a node too.
  }
  *out += '>';
  const bool leafish =
      depth >= options.max_depth || rng->Bernoulli(0.35) || *budget == 0;
  if (leafish) {
    if (rng->Bernoulli(options.value_prob)) {
      *out += ValueText(rng, options);
    }
  } else {
    const uint64_t kids =
        rng->Range(1, static_cast<uint64_t>(options.max_children));
    for (uint64_t k = 0; k < kids && *budget > 0; ++k) {
      GenElement(rng, options, depth + 1, budget, out);
    }
    if (rng->Bernoulli(0.2)) {
      *out += ValueText(rng, options);  // Mixed content.
    }
  }
  *out += "</" + tag + ">";
}

void GenSteps(Random* rng, const RandomDocOptions& options, int remaining,
              std::string* out, bool allow_predicates) {
  while (remaining-- > 0) {
    *out += rng->Bernoulli(0.3) ? "//" : "/";
    if (allow_predicates && rng->Bernoulli(0.09)) {
      // Less-common axes: rewrites (parent, preceding-sibling) and the
      // global mirrors (following, preceding).
      switch (rng->Uniform(4)) {
        case 0: *out += "parent::"; break;
        case 1: *out += "preceding-sibling::"; break;
        case 2: *out += "following::"; break;
        default: *out += "preceding::"; break;
      }
    }
    if (rng->Bernoulli(0.08)) {
      *out += "*";
    } else if (rng->Bernoulli(0.12)) {
      *out += "@k";
      // Attribute steps are leaves: optionally add a value test later via
      // the caller; stop descending.
      return;
    } else {
      *out += TagName(rng, options);
    }
    if (allow_predicates && rng->Bernoulli(0.35)) {
      *out += "[";
      std::string sub;
      GenSteps(rng, options, static_cast<int>(rng->Range(1, 2)), &sub,
               /*allow_predicates=*/false);
      // Strip the leading '/' of the relative path ('//'-leading kept).
      if (sub.rfind("//", 0) == 0) {
        *out += "." + sub;
      } else {
        *out += sub.substr(1);
      }
      if (rng->Bernoulli(0.5)) {
        const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
        *out += ops[rng->Uniform(6)];
        *out += "\"" + ValueText(rng, options) + "\"";
      }
      *out += "]";
    }
  }
}

}  // namespace

std::string RandomXml(Random* rng, const RandomDocOptions& options) {
  std::string out;
  size_t budget = options.max_nodes;
  // A single root; force at least a couple of nodes.
  const std::string root = TagName(rng, options);
  out += "<" + root + ">";
  size_t inner_budget = budget > 1 ? budget - 1 : 1;
  const uint64_t kids = rng->Range(1, 4);
  for (uint64_t k = 0; k < kids && inner_budget > 0; ++k) {
    GenElement(rng, options, 2, &inner_budget, &out);
  }
  out += "</" + root + ">";
  return out;
}

std::string RandomQuery(Random* rng, const RandomDocOptions& options) {
  std::string out;
  GenSteps(rng, options, static_cast<int>(rng->Range(1, 4)), &out,
           /*allow_predicates=*/true);
  if (out.empty()) out = "/a";
  return out;
}

Result<std::vector<DeweyId>> EvaluateWithArcDirection(
    DocumentStore* store, const std::string& xpath,
    const QueryOptions& options, ArcDirection direction) {
  NOK_ASSIGN_OR_RETURN(PatternTree pattern, ParseXPath(xpath));
  if (HasPositionalPredicate(pattern)) {
    return Status::NotSupported("positional predicates");
  }
  const NokPartition partition = PartitionPattern(pattern);
  const std::vector<TagId> tag_table =
      ResolvePatternTags(pattern, *store->tags());
  Planner planner(store);
  NOK_ASSIGN_OR_RETURN(QueryPlan plan,
                       planner.Plan(partition, tag_table, options));
  plan.arc_directions.resize(partition.arcs.size(), ArcDirection::kBottomUp);
  for (size_t a = 0; a < partition.arcs.size(); ++a) {
    if (TopDownEligible(partition, partition.arcs[a])) {
      plan.arc_directions[a] = direction;
    }
  }
  QueryStats stats;
  ExecutionTrace trace;
  return Executor(store).Run(plan, partition, tag_table, options, &stats,
                             &trace);
}

Result<std::vector<LocatedNode>> TagHits(DocumentStore* store, TagId tag) {
  NOK_ASSIGN_OR_RETURN(auto derived, store->derived());
  return store->NodesWithTag(*derived, tag);
}

Result<std::vector<LocatedNode>> ValueHits(DocumentStore* store,
                                           const Slice& value) {
  NOK_ASSIGN_OR_RETURN(auto derived, store->derived());
  return store->NodesWithValue(*derived, value);
}

std::vector<std::string> HitStrings(const std::vector<LocatedNode>& hits) {
  std::vector<std::string> out;
  out.reserve(hits.size());
  for (const LocatedNode& hit : hits) out.push_back(hit.dewey.ToString());
  return out;
}

}  // namespace testutil
}  // namespace nok
