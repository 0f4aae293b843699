#include "core/encoding_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "catalog/statistics.h"

namespace hsdb {

namespace {

constexpr double kCostEps = 1e-12;

/// Per-table search state: candidate codecs, footprints and the current
/// choice per column.
struct TableState {
  std::string name;
  std::vector<std::vector<Encoding>> candidates;  // per column
  std::vector<std::vector<double>> bytes;         // parallel to candidates
  std::vector<size_t> choice;                     // candidate index per column
  std::vector<size_t> picker_choice;
  /// The codec the statistics carry: the store's current codec for
  /// column-resident tables, the picker's estimate otherwise — the
  /// incumbent assignment the hysteresis rule protects.
  std::vector<size_t> incumbent_choice;
  /// Whether some piece of the layout gives the column encoded mass
  /// (EncodedRowFraction > 0): vertical row-store columns usually carry
  /// none, but a column-store hot piece encodes every column it holds.
  std::vector<bool> searchable;

  std::vector<Encoding> Encodings() const {
    std::vector<Encoding> out(choice.size());
    for (size_t c = 0; c < choice.size(); ++c) {
      out[c] = candidates[c][choice[c]];
    }
    return out;
  }

  double FootprintBytes() const {
    double total = 0.0;
    for (size_t c = 0; c < choice.size(); ++c) {
      if (searchable[c]) total += bytes[c][choice[c]];
    }
    return total;
  }
};

/// One searchable (table, column) coordinate.
struct Item {
  size_t table;
  size_t column;
};

/// Per-column codec candidate machinery shared by Search and SearchJoint:
/// the picker-pruned codecs, their estimated footprints, and the indices
/// of the picker's choice and of the incumbent — the codec the statistics
/// carry (what the store currently uses, or the picker's choice for
/// hypothetical moves), falling back to the picker when it is no longer a
/// candidate (e.g. RLE pruned after the run structure degraded). Keeping
/// this in one place is what keeps the joint search's sequential baseline
/// in lock-step with Search().
struct ColumnCandidates {
  std::vector<Encoding> codecs;
  std::vector<double> bytes;
  size_t picker = 0;
  size_t incumbent = 0;
};

ColumnCandidates BuildColumnCandidates(
    const ColumnStatistics& stats, uint64_t row_count,
    const compression::EncodingPicker& picker) {
  ColumnCandidates out;
  compression::EncodingProfile profile =
      StatisticsEncodingProfile(stats, row_count);
  out.codecs = compression::CandidateEncodings(profile, picker.options());
  out.bytes.reserve(out.codecs.size());
  for (Encoding e : out.codecs) {
    double b = compression::EstimateEncodedBytes(e, profile);
    if (!std::isfinite(b)) b = std::numeric_limits<double>::max();
    out.bytes.push_back(b);
  }
  const Encoding picked = picker.Pick(profile);
  for (size_t i = 0; i < out.codecs.size(); ++i) {
    if (out.codecs[i] == picked) out.picker = i;
  }
  out.incumbent = out.picker;
  for (size_t i = 0; i < out.codecs.size(); ++i) {
    if (out.codecs[i] == stats.encoding) out.incumbent = i;
  }
  return out;
}

/// Incremental workload evaluator shared by Search and SearchJoint.
/// Queries touching no searched table are costed once at construction and
/// contribute a constant; an affected query is re-costed only when one of
/// its tables was marked dirty since the last Evaluate(). Every mutation
/// of a table's design must MarkDirty that table (or MarkAllDirty after a
/// bulk restore) before the next Evaluate(); skipped evaluations simply
/// let dirt accumulate.
class IncrementalEvaluator {
 public:
  IncrementalEvaluator(const WorkloadCostEstimator& estimator,
                       const Catalog& catalog, LayoutProvider provider,
                       const std::vector<WeightedQuery>& workload,
                       const std::map<std::string, size_t>& index_of)
      : estimator_(estimator), provider_(std::move(provider)) {
    for (const WeightedQuery& wq : workload) {
      // Planned once: only the layout changes between evaluations. A query
      // that fails planning costs nothing.
      Result<Plan> plan = PlanQuery(catalog, wq.query);
      if (!plan.ok()) continue;
      QueryEval entry;
      entry.wq = &wq;
      entry.plan = std::move(plan).value();
      for (const std::string& name : TablesOf(wq.query)) {
        auto it = index_of.find(name);
        if (it != index_of.end() &&
            std::find(entry.touched.begin(), entry.touched.end(),
                      it->second) == entry.touched.end()) {
          entry.touched.push_back(it->second);
        }
      }
      if (entry.touched.empty()) {
        running_total_ +=
            wq.weight * estimator_.QueryCost(wq.query, entry.plan, provider_);
      } else {
        affected_.push_back(std::move(entry));
      }
    }
  }

  void MarkDirty(size_t table) {
    if (!all_dirty_ &&
        std::find(dirty_.begin(), dirty_.end(), table) == dirty_.end()) {
      dirty_.push_back(table);
    }
  }

  void MarkAllDirty() {
    all_dirty_ = true;
    dirty_.clear();
  }

  double Evaluate() {
    ++evaluated_;
    for (QueryEval& entry : affected_) {
      bool stale = all_dirty_;
      for (size_t t : entry.touched) {
        if (stale) break;
        stale = std::find(dirty_.begin(), dirty_.end(), t) != dirty_.end();
      }
      if (!stale) continue;
      running_total_ -= entry.cost;
      entry.cost = entry.wq->weight * estimator_.QueryCost(
                                          entry.wq->query, entry.plan,
                                          provider_);
      running_total_ += entry.cost;
    }
    all_dirty_ = false;
    dirty_.clear();
    return running_total_;
  }

  size_t evaluated() const { return evaluated_; }

 private:
  struct QueryEval {
    const WeightedQuery* wq = nullptr;
    Plan plan;
    std::vector<size_t> touched;  // searched-table indices
    double cost = 0.0;            // weighted, as of the last Evaluate()
  };

  const WorkloadCostEstimator& estimator_;
  LayoutProvider provider_;
  std::vector<QueryEval> affected_;
  double running_total_ = 0.0;  // fixed queries + affected after Evaluate()
  bool all_dirty_ = true;
  std::vector<size_t> dirty_;
  size_t evaluated_ = 0;
};

}  // namespace

EncodingSearchResult EncodingSearch::Search(
    const std::vector<WeightedQuery>& workload,
    const std::map<std::string, LayoutContext>& layouts) const {
  EncodingSearchResult result;

  // ---- Candidate sets: the picker's profile rules prune per column -------
  std::vector<TableState> tables;
  for (const auto& [name, ctx] : layouts) {
    if (!HasColumnStorePiece(ctx.layout)) continue;
    const TableStatistics* stats = catalog_->GetStatistics(name);
    const LogicalTable* table = catalog_->GetTable(name);
    if (stats == nullptr || stats->columns.empty() || table == nullptr) {
      continue;
    }
    const Schema& schema = table->schema();
    const compression::EncodingPicker picker(options_.picker);

    TableState state;
    state.name = name;
    const size_t n = stats->columns.size();
    state.candidates.resize(n);
    state.bytes.resize(n);
    state.choice.resize(n);
    state.picker_choice.resize(n);
    state.incumbent_choice.resize(n);
    state.searchable.assign(n, true);
    for (ColumnId c = 0; c < n; ++c) {
      ColumnCandidates cand =
          BuildColumnCandidates(stats->columns[c], stats->row_count, picker);
      state.candidates[c] = std::move(cand.codecs);
      state.bytes[c] = std::move(cand.bytes);
      state.picker_choice[c] = cand.picker;
      state.incumbent_choice[c] = cand.incumbent;
      state.choice[c] = cand.picker;
      // Footprint counts only the row mass the column-store pieces hold: a
      // horizontal split's row-store hot piece carries no encoded segments,
      // so a narrower hybrid split genuinely shrinks the budget charge. A
      // column is searched exactly when some piece gives it encoded mass —
      // vertical row-store columns usually carry none (the replicated
      // primary key stays encoded in the base piece), but a column-store
      // *hot* piece holds whole rows and encodes even those. Using the same
      // rule here and in SearchJoint keeps the two searches' footprints of
      // identical designs identical.
      const double fraction = EncodedRowFraction(ctx, schema, c);
      state.searchable[c] = fraction > 0.0;
      for (double& b : state.bytes[c]) b *= fraction;
    }
    tables.push_back(std::move(state));
  }
  if (tables.empty()) return result;

  std::vector<Item> items;
  size_t combinations = 1;
  bool overflow = false;
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < tables[t].choice.size(); ++c) {
      if (!tables[t].searchable[c] || tables[t].candidates[c].size() < 2) {
        continue;
      }
      items.push_back(Item{t, c});
      if (!overflow) {
        combinations *= tables[t].candidates[c].size();
        if (combinations > options_.exact_combination_limit) overflow = true;
      }
    }
  }

  // ---- Evaluation under the current per-table choices --------------------
  // Incremental: a candidate assignment differs from the previously
  // evaluated one in a few columns of a few tables, so only queries
  // touching those tables are re-costed.
  std::map<std::string, size_t> index_of;
  for (size_t t = 0; t < tables.size(); ++t) {
    index_of.emplace(tables[t].name, t);
  }
  auto layout_provider = [&](const std::string& name) {
    auto it = layouts.find(name);
    LayoutContext ctx = it == layouts.end()
                            ? LayoutContext::SingleStore(StoreType::kRow)
                            : it->second;
    auto ti = index_of.find(name);
    if (ti != index_of.end()) {
      ctx.encodings = tables[ti->second].Encodings();
    }
    return ctx;
  };
  IncrementalEvaluator eval(estimator_, *catalog_, layout_provider, workload,
                            index_of);
  auto mark_dirty = [&](size_t t) { eval.MarkDirty(t); };
  auto mark_all_dirty = [&]() { eval.MarkAllDirty(); };
  auto evaluate = [&]() { return eval.Evaluate(); };
  auto total_footprint = [&]() {
    double total = 0.0;
    for (const TableState& state : tables) total += state.FootprintBytes();
    return total;
  };

  // Feasibility floor: every searchable column at its smallest codec.
  double min_footprint = 0.0;
  for (const TableState& state : tables) {
    for (size_t c = 0; c < state.choice.size(); ++c) {
      if (!state.searchable[c]) continue;
      min_footprint +=
          *std::min_element(state.bytes[c].begin(), state.bytes[c].end());
    }
  }
  result.min_footprint_bytes = min_footprint;

  // ---- Picker and incumbent baselines ------------------------------------
  for (TableState& state : tables) state.choice = state.picker_choice;
  mark_all_dirty();
  result.picker_cost_ms = evaluate();
  result.picker_footprint_bytes = total_footprint();

  bool incumbent_is_picker = true;
  for (const TableState& state : tables) {
    incumbent_is_picker =
        incumbent_is_picker && state.incumbent_choice == state.picker_choice;
  }
  double incumbent_cost = result.picker_cost_ms;
  double incumbent_footprint = result.picker_footprint_bytes;
  if (!incumbent_is_picker) {
    for (TableState& state : tables) state.choice = state.incumbent_choice;
    mark_all_dirty();
    incumbent_cost = evaluate();
    incumbent_footprint = total_footprint();
  }

  const std::optional<double>& budget = options_.memory_budget_bytes;
  auto feasible_at = [&](double footprint) {
    return !budget.has_value() || footprint <= *budget + 1e-6;
  };

  // The incumbent preloads the winner: the search must earn any deviation.
  double best_cost = incumbent_cost;
  double best_footprint = incumbent_footprint;
  std::vector<std::vector<size_t>> best_choice;
  auto snapshot = [&]() {
    best_choice.clear();
    for (const TableState& state : tables) best_choice.push_back(state.choice);
  };
  for (TableState& state : tables) state.choice = state.incumbent_choice;
  snapshot();

  if (!overflow && !items.empty()) {
    // ---- Exact enumeration over the candidate cross-product --------------
    result.exact = true;
    bool any_feasible = feasible_at(incumbent_footprint);
    // Enumerate with non-item columns pinned at the picker choice (their
    // candidate set is a singleton anyway).
    std::vector<size_t> odometer(items.size(), 0);
    for (const Item& item : items) {
      tables[item.table].choice[item.column] = 0;
    }
    mark_all_dirty();
    bool done = false;
    while (!done) {
      double footprint = total_footprint();
      if (feasible_at(footprint)) {
        double cost = evaluate();
        bool better =
            !any_feasible || cost < best_cost - kCostEps ||
            (cost <= best_cost + kCostEps && footprint < best_footprint);
        if (better) {
          best_cost = cost;
          best_footprint = footprint;
          snapshot();
        }
        any_feasible = true;
      }
      // Advance the odometer.
      size_t i = 0;
      for (; i < items.size(); ++i) {
        size_t limit =
            tables[items[i].table].candidates[items[i].column].size();
        size_t next = odometer[i] + 1;
        odometer[i] = next < limit ? next : 0;
        tables[items[i].table].choice[items[i].column] = odometer[i];
        mark_dirty(items[i].table);
        if (next < limit) break;
      }
      done = i == items.size();
    }
    if (!any_feasible) {
      // Budget below the floor: fall back to the minimal footprint.
      for (TableState& state : tables) {
        for (size_t c = 0; c < state.choice.size(); ++c) {
          if (!state.searchable[c]) continue;
          state.choice[c] = static_cast<size_t>(
              std::min_element(state.bytes[c].begin(), state.bytes[c].end()) -
              state.bytes[c].begin());
        }
      }
      mark_all_dirty();
      best_cost = evaluate();
      best_footprint = total_footprint();
      snapshot();
      result.feasible = false;
    }
  } else {
    // ---- Greedy knapsack --------------------------------------------------
    // Phase 1: coordinate descent on workload cost, budget ignored. Starting
    // from the picker's assignment this can only improve the cost.
    for (TableState& state : tables) state.choice = state.picker_choice;
    mark_all_dirty();
    double cur_cost = result.picker_cost_ms;
    bool improved = true;
    int passes = 0;
    while (improved && passes++ < 8) {
      improved = false;
      for (const Item& item : items) {
        TableState& state = tables[item.table];
        size_t original = state.choice[item.column];
        size_t best_i = original;
        double best_i_cost = cur_cost;
        double best_i_bytes = state.bytes[item.column][original];
        for (size_t i = 0; i < state.candidates[item.column].size(); ++i) {
          if (i == original) continue;
          state.choice[item.column] = i;
          mark_dirty(item.table);
          double cost = evaluate();
          double b = state.bytes[item.column][i];
          if (cost < best_i_cost - kCostEps ||
              (cost <= best_i_cost + kCostEps && b < best_i_bytes)) {
            best_i = i;
            best_i_cost = cost;
            best_i_bytes = b;
          }
        }
        state.choice[item.column] = best_i;
        mark_dirty(item.table);
        if (best_i != original) {
          cur_cost = best_i_cost;
          improved = true;
        }
      }
    }

    // Phase 2: repair the budget — repeatedly take the swap to a smaller
    // codec with the best cost-increase / bytes-saved ratio (the classic
    // greedy knapsack eviction over per-column footprint deltas).
    double cur_footprint = total_footprint();
    while (budget.has_value() && cur_footprint > *budget + 1e-6) {
      double best_ratio = std::numeric_limits<double>::infinity();
      double best_saved = 0.0;
      size_t best_item = items.size();
      size_t best_cand = 0;
      double best_swap_cost = cur_cost;
      for (size_t n = 0; n < items.size(); ++n) {
        TableState& state = tables[items[n].table];
        size_t cur = state.choice[items[n].column];
        double cur_bytes = state.bytes[items[n].column][cur];
        for (size_t i = 0; i < state.candidates[items[n].column].size();
             ++i) {
          double saved = cur_bytes - state.bytes[items[n].column][i];
          if (saved <= 0.0) continue;
          state.choice[items[n].column] = i;
          mark_dirty(items[n].table);
          double cost = evaluate();
          state.choice[items[n].column] = cur;
          mark_dirty(items[n].table);
          double ratio = (cost - cur_cost) / saved;
          if (ratio < best_ratio ||
              (ratio <= best_ratio + kCostEps && saved > best_saved)) {
            best_ratio = ratio;
            best_saved = saved;
            best_item = n;
            best_cand = i;
            best_swap_cost = cost;
          }
        }
      }
      if (best_item == items.size()) break;  // nothing left to shrink
      tables[items[best_item].table].choice[items[best_item].column] =
          best_cand;
      mark_dirty(items[best_item].table);
      cur_cost = best_swap_cost;
      cur_footprint -= best_saved;
      ++result.repair_iterations;
    }

    best_cost = cur_cost;
    best_footprint = total_footprint();
    result.feasible = feasible_at(best_footprint);
    snapshot();

    // Never-worse guarantee: when the picker's own assignment is feasible
    // and cheaper, keep it.
    if (feasible_at(result.picker_footprint_bytes) &&
        result.picker_cost_ms < best_cost - kCostEps) {
      for (size_t t = 0; t < tables.size(); ++t) {
        tables[t].choice = tables[t].picker_choice;
      }
      best_cost = result.picker_cost_ms;
      best_footprint = result.picker_footprint_bytes;
      result.feasible = true;
      snapshot();
    }
  }

  // ---- Hysteresis: recommendation stability ------------------------------
  // Keep the incumbent encodings unless the winner improves materially.
  // Guarded so the never-worse-than-picker and budget guarantees survive:
  // the incumbent must itself be feasible and no costlier than the picker.
  if (feasible_at(incumbent_footprint) &&
      incumbent_cost <= result.picker_cost_ms + kCostEps &&
      best_cost > incumbent_cost -
                      options_.min_improvement * incumbent_cost) {
    for (TableState& state : tables) state.choice = state.incumbent_choice;
    best_cost = incumbent_cost;
    best_footprint = incumbent_footprint;
    result.feasible = true;
    result.hysteresis_applied = true;
    snapshot();
  }

  // ---- Materialize the winner -------------------------------------------
  for (size_t t = 0; t < tables.size(); ++t) {
    tables[t].choice = best_choice[t];
    TableEncodingAssignment assignment;
    assignment.encodings = tables[t].Encodings();
    assignment.footprint_bytes = tables[t].FootprintBytes();
    result.tables.emplace(tables[t].name, std::move(assignment));
  }
  result.cost_ms = best_cost;
  result.footprint_bytes = best_footprint;
  result.evaluated_assignments = eval.evaluated();
  return result;
}

namespace {

/// Per-table state of the joint search: layout candidates crossed with
/// per-column codec candidates. Codec candidate sets and byte estimates are
/// layout-independent; which columns carry encoded mass (and how much of
/// it) depends on the layout via the per-layout fraction table.
struct JointTable {
  std::string name;
  std::vector<LayoutCandidate> layouts;           // [0] = staged pick
  std::vector<std::vector<Encoding>> candidates;  // per column
  std::vector<std::vector<double>> bytes;         // parallel, unscaled
  std::vector<std::vector<double>> fraction;      // [layout][column]

  size_t layout_choice = 0;
  std::vector<size_t> choice;
  std::vector<size_t> picker_choice;
  /// The codecs the catalog statistics carry (the store's current codecs),
  /// and the candidate matching the table's current layout — together the
  /// incumbent design the hysteresis rule protects across layout flips.
  std::vector<size_t> incumbent_choice;
  size_t incumbent_layout = 0;
  bool has_incumbent_layout = false;

  std::vector<Encoding> Encodings() const {
    std::vector<Encoding> out(choice.size());
    for (size_t c = 0; c < choice.size(); ++c) {
      out[c] = candidates[c][choice[c]];
    }
    return out;
  }

  double FootprintBytes() const {
    double total = 0.0;
    for (size_t c = 0; c < choice.size(); ++c) {
      total += bytes[c][choice[c]] * fraction[layout_choice][c];
    }
    return total;
  }

  /// Footprint of the current codecs under a hypothetical layout flip.
  double FootprintBytesAt(size_t layout) const {
    double total = 0.0;
    for (size_t c = 0; c < choice.size(); ++c) {
      total += bytes[c][choice[c]] * fraction[layout][c];
    }
    return total;
  }

  /// Tightest footprint this layout can reach (per-column byte minima).
  double MinFootprintAt(size_t layout) const {
    double total = 0.0;
    for (size_t c = 0; c < choice.size(); ++c) {
      total += *std::min_element(bytes[c].begin(), bytes[c].end()) *
               fraction[layout][c];
    }
    return total;
  }

  LayoutContext Context() const {
    LayoutContext ctx = layouts[layout_choice].context;
    ctx.encodings = Encodings();
    return ctx;
  }
};

}  // namespace

JointSearchResult EncodingSearch::SearchJoint(
    const std::vector<WeightedQuery>& workload,
    const std::map<std::string, std::vector<LayoutCandidate>>& candidates)
    const {
  JointSearchResult result;

  // The staged pipeline's layouts (candidate 0): the sequential baseline's
  // input and the layout provider's fallback for unsearched tables.
  std::map<std::string, LayoutContext> base_layouts;
  for (const auto& [name, cands] : candidates) {
    if (!cands.empty()) base_layouts.emplace(name, cands[0].context);
  }

  // ---- Per-table search state -------------------------------------------
  std::vector<JointTable> tables;
  for (const auto& [name, cands] : candidates) {
    if (cands.empty()) continue;
    const TableStatistics* stats = catalog_->GetStatistics(name);
    const LogicalTable* table = catalog_->GetTable(name);
    if (stats == nullptr || stats->columns.empty() || table == nullptr) {
      continue;
    }
    const Schema& schema = table->schema();
    const compression::EncodingPicker picker(options_.picker);

    JointTable state;
    state.name = name;
    state.layouts = cands;
    const size_t n = stats->columns.size();
    state.candidates.resize(n);
    state.bytes.resize(n);
    state.choice.resize(n);
    state.picker_choice.resize(n);
    state.incumbent_choice.resize(n);
    for (ColumnId c = 0; c < n; ++c) {
      ColumnCandidates cand =
          BuildColumnCandidates(stats->columns[c], stats->row_count, picker);
      state.candidates[c] = std::move(cand.codecs);
      state.bytes[c] = std::move(cand.bytes);
      state.picker_choice[c] = cand.picker;
      state.incumbent_choice[c] = cand.incumbent;
      state.choice[c] = cand.picker;
    }
    state.fraction.resize(cands.size());
    for (size_t l = 0; l < cands.size(); ++l) {
      state.fraction[l].resize(n);
      for (ColumnId c = 0; c < n; ++c) {
        state.fraction[l][c] =
            EncodedRowFraction(cands[l].context, schema, c);
      }
    }
    // The incumbent layout is the candidate matching what the catalog
    // currently has; absent one, the table has no layout incumbent and the
    // hysteresis rule falls back to the sequential pick for it.
    for (size_t l = 0; l < cands.size(); ++l) {
      if (cands[l].context.layout == table->layout()) {
        state.incumbent_layout = l;
        state.has_incumbent_layout = true;
        break;
      }
    }
    tables.push_back(std::move(state));
  }
  if (tables.empty()) return result;

  // ---- Search dimensions and the exact-enumeration budget ----------------
  struct Dim {
    size_t table;
    bool is_layout;
    size_t column;
  };
  std::vector<Dim> dims;
  size_t combinations = 1;
  bool overflow = false;
  auto bump = [&](size_t k) {
    if (!overflow) {
      combinations *= k;
      if (combinations > options_.exact_combination_limit) overflow = true;
    }
  };
  for (size_t t = 0; t < tables.size(); ++t) {
    if (tables[t].layouts.size() > 1) {
      dims.push_back(Dim{t, true, 0});
      bump(tables[t].layouts.size());
    }
    for (size_t c = 0; c < tables[t].choice.size(); ++c) {
      if (tables[t].candidates[c].size() < 2) continue;
      // A codec only matters where some candidate layout gives the column
      // encoded mass.
      bool encoded_somewhere = false;
      for (size_t l = 0; l < tables[t].layouts.size(); ++l) {
        encoded_somewhere =
            encoded_somewhere || tables[t].fraction[l][c] > 0.0;
      }
      if (!encoded_somewhere) continue;
      dims.push_back(Dim{t, false, c});
      bump(tables[t].candidates[c].size());
    }
  }

  // ---- Incremental evaluation (identical scheme to Search) ---------------
  std::map<std::string, size_t> index_of;
  for (size_t t = 0; t < tables.size(); ++t) {
    index_of.emplace(tables[t].name, t);
  }
  auto layout_provider = [&](const std::string& name) {
    auto ti = index_of.find(name);
    if (ti != index_of.end()) return tables[ti->second].Context();
    auto it = base_layouts.find(name);
    return it == base_layouts.end()
               ? LayoutContext::SingleStore(StoreType::kRow)
               : it->second;
  };

  IncrementalEvaluator eval(estimator_, *catalog_, layout_provider, workload,
                            index_of);
  auto mark_dirty = [&](size_t t) { eval.MarkDirty(t); };
  auto mark_all_dirty = [&]() { eval.MarkAllDirty(); };
  auto evaluate = [&]() { return eval.Evaluate(); };
  auto total_footprint = [&]() {
    double total = 0.0;
    for (const JointTable& state : tables) total += state.FootprintBytes();
    return total;
  };

  // Feasibility floor: every table at its tightest layout+codec design.
  double min_footprint = 0.0;
  for (const JointTable& state : tables) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < state.layouts.size(); ++l) {
      best = std::min(best, state.MinFootprintAt(l));
    }
    min_footprint += best;
  }
  result.min_footprint_bytes = min_footprint;

  const std::optional<double>& budget = options_.memory_budget_bytes;
  auto feasible_at = [&](double footprint) {
    return !budget.has_value() || footprint <= *budget + 1e-6;
  };

  // ---- Sequential baseline: the staged layout-then-encoding pipeline ----
  // Run the per-column search on the frozen candidate-0 layouts (exactly
  // what the advisor did before the joint mode) and price the result with
  // this search's own evaluator, so comparisons are apples to apples.
  EncodingSearchResult sequential = Search(workload, base_layouts);
  result.picker_cost_ms = sequential.picker_cost_ms;
  for (JointTable& state : tables) {
    state.layout_choice = 0;
    auto it = sequential.tables.find(state.name);
    if (it == sequential.tables.end()) {
      state.choice = state.picker_choice;
      continue;
    }
    for (size_t c = 0; c < state.choice.size(); ++c) {
      state.choice[c] = state.picker_choice[c];
      if (c < it->second.encodings.size()) {
        for (size_t i = 0; i < state.candidates[c].size(); ++i) {
          if (state.candidates[c][i] == it->second.encodings[c]) {
            state.choice[c] = i;
          }
        }
      }
    }
  }
  mark_all_dirty();
  const double sequential_cost = evaluate();
  const double sequential_footprint = total_footprint();
  result.sequential_cost_ms = sequential_cost;
  result.sequential_footprint_bytes = sequential_footprint;
  result.sequential_feasible = feasible_at(sequential_footprint);
  std::vector<size_t> seq_layout(tables.size(), 0);
  std::vector<std::vector<size_t>> seq_choice;
  for (const JointTable& state : tables) seq_choice.push_back(state.choice);

  // ---- Incumbent design: what the catalog currently has ------------------
  // Tables whose current layout is not among the candidates fall back to
  // their sequential pick (they have no layout incumbent to protect).
  bool incumbent_is_sequential = true;
  for (size_t t = 0; t < tables.size(); ++t) {
    JointTable& state = tables[t];
    if (state.has_incumbent_layout) {
      state.layout_choice = state.incumbent_layout;
      state.choice = state.incumbent_choice;
    } else {
      state.layout_choice = 0;
      state.choice = seq_choice[t];
    }
    incumbent_is_sequential = incumbent_is_sequential &&
                              state.layout_choice == 0 &&
                              state.choice == seq_choice[t];
  }
  double incumbent_cost = sequential_cost;
  double incumbent_footprint = sequential_footprint;
  if (!incumbent_is_sequential) {
    mark_all_dirty();
    incumbent_cost = evaluate();
    incumbent_footprint = total_footprint();
  }
  std::vector<size_t> inc_layout(tables.size());
  std::vector<std::vector<size_t>> inc_choice;
  for (size_t t = 0; t < tables.size(); ++t) {
    inc_layout[t] = tables[t].layout_choice;
    inc_choice.push_back(tables[t].choice);
  }

  // ---- Winner tracking ---------------------------------------------------
  bool have_best = false;
  double best_cost = 0.0;
  double best_footprint = 0.0;
  std::vector<size_t> best_layout(tables.size(), 0);
  std::vector<std::vector<size_t>> best_choice;
  auto snapshot = [&]() {
    best_choice.clear();
    for (size_t t = 0; t < tables.size(); ++t) {
      best_layout[t] = tables[t].layout_choice;
      best_choice.push_back(tables[t].choice);
    }
  };
  auto consider = [&](double cost, double footprint) {
    if (!feasible_at(footprint)) return;
    if (!have_best || cost < best_cost - kCostEps ||
        (cost <= best_cost + kCostEps && footprint < best_footprint)) {
      have_best = true;
      best_cost = cost;
      best_footprint = footprint;
      snapshot();
    }
  };
  auto restore = [&](const std::vector<size_t>& layout,
                     const std::vector<std::vector<size_t>>& choice) {
    for (size_t t = 0; t < tables.size(); ++t) {
      tables[t].layout_choice = layout[t];
      tables[t].choice = choice[t];
    }
    mark_all_dirty();
  };

  // The sequential design preloads the winner: any deviation must earn it.
  restore(seq_layout, seq_choice);
  consider(sequential_cost, sequential_footprint);

  if (!overflow && !dims.empty()) {
    // ---- Exact enumeration over the layout x codec cross-product ---------
    result.exact = true;
    for (const Dim& dim : dims) {
      if (dim.is_layout) {
        tables[dim.table].layout_choice = 0;
      } else {
        tables[dim.table].choice[dim.column] = 0;
      }
    }
    std::vector<size_t> odometer(dims.size(), 0);
    mark_all_dirty();
    bool done = false;
    while (!done) {
      double footprint = total_footprint();
      if (feasible_at(footprint)) consider(evaluate(), footprint);
      size_t i = 0;
      for (; i < dims.size(); ++i) {
        const Dim& dim = dims[i];
        const size_t limit =
            dim.is_layout ? tables[dim.table].layouts.size()
                          : tables[dim.table].candidates[dim.column].size();
        const size_t next = odometer[i] + 1;
        odometer[i] = next < limit ? next : 0;
        if (dim.is_layout) {
          tables[dim.table].layout_choice = odometer[i];
        } else {
          tables[dim.table].choice[dim.column] = odometer[i];
        }
        mark_dirty(dim.table);
        if (next < limit) break;
      }
      done = i == dims.size();
    }
  } else {
    // ---- Greedy joint descent ---------------------------------------------
    // Phase 1: per-table coordinate descent on workload cost over (layout,
    // codecs), budget ignored — starting from the sequential solution this
    // can only improve the cost.
    restore(seq_layout, seq_choice);
    double cur_cost = evaluate();
    bool improved = true;
    int passes = 0;
    while (improved && passes++ < 4) {
      improved = false;
      for (size_t t = 0; t < tables.size(); ++t) {
        JointTable& state = tables[t];
        size_t best_l = state.layout_choice;
        std::vector<size_t> best_ch = state.choice;
        double best_t_cost = cur_cost;
        double best_t_bytes = state.FootprintBytes();
        for (size_t l = 0; l < state.layouts.size(); ++l) {
          state.layout_choice = l;
          mark_dirty(t);
          double l_cost = evaluate();
          // Codec descent for the columns that carry encoded mass under l.
          bool l_improved = true;
          int l_passes = 0;
          while (l_improved && l_passes++ < 4) {
            l_improved = false;
            for (size_t c = 0; c < state.choice.size(); ++c) {
              if (state.candidates[c].size() < 2 ||
                  state.fraction[l][c] <= 0.0) {
                continue;
              }
              size_t original = state.choice[c];
              size_t best_i = original;
              double best_i_cost = l_cost;
              double best_i_bytes = state.bytes[c][original];
              for (size_t i = 0; i < state.candidates[c].size(); ++i) {
                if (i == original) continue;
                state.choice[c] = i;
                mark_dirty(t);
                double cost = evaluate();
                if (cost < best_i_cost - kCostEps ||
                    (cost <= best_i_cost + kCostEps &&
                     state.bytes[c][i] < best_i_bytes)) {
                  best_i = i;
                  best_i_cost = cost;
                  best_i_bytes = state.bytes[c][i];
                }
              }
              state.choice[c] = best_i;
              mark_dirty(t);
              if (best_i != original) {
                l_cost = best_i_cost;
                l_improved = true;
              } else {
                l_cost = evaluate();
              }
            }
          }
          double l_bytes = state.FootprintBytes();
          if (l_cost < best_t_cost - kCostEps ||
              (l_cost <= best_t_cost + kCostEps && l_bytes < best_t_bytes)) {
            if (l != best_l || state.choice != best_ch) improved = true;
            best_l = l;
            best_ch = state.choice;
            best_t_cost = l_cost;
            best_t_bytes = l_bytes;
          }
        }
        state.layout_choice = best_l;
        state.choice = best_ch;
        mark_dirty(t);
        cur_cost = evaluate();
      }
    }

    // Phase 2: repair the budget. The eviction moves now include layout
    // flips — a table whose encoded footprint busts the budget can fall
    // back to the row store or a narrower hybrid split — alongside the
    // classic swap-to-a-smaller-codec moves, all ranked by cost-increase
    // per byte saved.
    double cur_footprint = total_footprint();
    while (budget.has_value() && cur_footprint > *budget + 1e-6) {
      double best_ratio = std::numeric_limits<double>::infinity();
      double best_saved = 0.0;
      double best_move_cost = cur_cost;
      size_t move_table = tables.size();
      bool move_is_layout = false;
      size_t move_column = 0;
      size_t move_target = 0;
      auto offer = [&](size_t t, bool is_layout, size_t column,
                       size_t target, double saved, double cost) {
        const double ratio = (cost - cur_cost) / saved;
        if (ratio < best_ratio ||
            (ratio <= best_ratio + kCostEps && saved > best_saved)) {
          best_ratio = ratio;
          best_saved = saved;
          best_move_cost = cost;
          move_table = t;
          move_is_layout = is_layout;
          move_column = column;
          move_target = target;
        }
      };
      for (size_t t = 0; t < tables.size(); ++t) {
        JointTable& state = tables[t];
        const size_t cur_layout = state.layout_choice;
        for (size_t c = 0; c < state.choice.size(); ++c) {
          if (state.fraction[cur_layout][c] <= 0.0) continue;
          const size_t cur = state.choice[c];
          for (size_t i = 0; i < state.candidates[c].size(); ++i) {
            const double saved = (state.bytes[c][cur] - state.bytes[c][i]) *
                                 state.fraction[cur_layout][c];
            if (saved <= 0.0) continue;
            state.choice[c] = i;
            mark_dirty(t);
            double cost = evaluate();
            state.choice[c] = cur;
            mark_dirty(t);
            offer(t, false, c, i, saved, cost);
          }
        }
        const double cur_bytes = state.FootprintBytes();
        for (size_t l = 0; l < state.layouts.size(); ++l) {
          if (l == cur_layout) continue;
          const double saved = cur_bytes - state.FootprintBytesAt(l);
          if (saved <= 0.0) continue;
          state.layout_choice = l;
          mark_dirty(t);
          double cost = evaluate();
          state.layout_choice = cur_layout;
          mark_dirty(t);
          offer(t, true, 0, l, saved, cost);
        }
      }
      if (move_table == tables.size()) break;  // nothing left to shrink
      if (move_is_layout) {
        tables[move_table].layout_choice = move_target;
      } else {
        tables[move_table].choice[move_column] = move_target;
      }
      mark_dirty(move_table);
      cur_cost = best_move_cost;
      cur_footprint -= best_saved;
      ++result.repair_iterations;
    }
    // Re-evaluate cleanly (the eviction loop tracks the footprint
    // incrementally) and offer the repaired design to the winner.
    mark_all_dirty();
    consider(evaluate(), total_footprint());
  }

  // ---- Infeasible even at the best layout: report the floor --------------
  if (!have_best) {
    for (JointTable& state : tables) {
      size_t floor_layout = 0;
      double floor_bytes = std::numeric_limits<double>::infinity();
      for (size_t l = 0; l < state.layouts.size(); ++l) {
        const double b = state.MinFootprintAt(l);
        if (b < floor_bytes) {
          floor_bytes = b;
          floor_layout = l;
        }
      }
      state.layout_choice = floor_layout;
      for (size_t c = 0; c < state.choice.size(); ++c) {
        state.choice[c] = static_cast<size_t>(
            std::min_element(state.bytes[c].begin(), state.bytes[c].end()) -
            state.bytes[c].begin());
      }
    }
    mark_all_dirty();
    best_cost = evaluate();
    best_footprint = total_footprint();
    snapshot();
    have_best = true;
    // The greedy repair can get stuck above the budget even when the floor
    // design fits (it never combines a layout flip with codec downgrades
    // in one move), so feasibility is judged by the materialized design,
    // not by how we got here: infeasible only when even the best
    // layout+codec floor cannot fit.
    result.feasible = feasible_at(best_footprint);
  }

  // ---- Hysteresis: recommendation stability across layout flips ----------
  // Keep the catalog's current design unless the winner improves
  // materially, guarded so the never-worse-than-sequential and budget
  // guarantees survive: the incumbent must itself be feasible and no
  // costlier than the sequential pipeline's solution.
  if (options_.min_improvement > 0.0 && feasible_at(incumbent_footprint) &&
      incumbent_cost <= sequential_cost + kCostEps &&
      best_cost > incumbent_cost -
                      options_.min_improvement * incumbent_cost) {
    restore(inc_layout, inc_choice);
    best_cost = incumbent_cost;
    best_footprint = incumbent_footprint;
    result.feasible = true;
    result.hysteresis_applied = true;
    snapshot();
  }

  // ---- Materialize the winner -------------------------------------------
  restore(best_layout, best_choice);
  for (JointTable& state : tables) {
    JointTableDesign design;
    design.candidate_index = state.layout_choice;
    design.context = state.Context();
    design.reason = state.layouts[state.layout_choice].reason;
    design.footprint_bytes = state.FootprintBytes();
    design.layout_changed = !(state.layouts[state.layout_choice]
                                  .context.layout ==
                              state.layouts[0].context.layout);
    result.tables.emplace(state.name, std::move(design));
  }
  result.cost_ms = best_cost;
  result.footprint_bytes = best_footprint;
  result.evaluated_assignments = eval.evaluated();
  return result;
}

}  // namespace hsdb
