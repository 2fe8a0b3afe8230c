#include "core/pipeline.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/sweep_cache.hpp"
#include "obs/span.hpp"
#include "sched/cache.hpp"
#include "sched/graph.hpp"
#include "sched/pool.hpp"
#include "util/stats.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace difftrace::core {

// --- Session -----------------------------------------------------------------

namespace {

/// Per-(run, trace) working state for the parallel/cached Session build.
struct SideSlot {
  std::string cache_key;                 // NLR artifact key ("" when uncached)
  std::optional<NlrArtifact> artifact;   // cache hit: the rehydrated program
  std::vector<std::string> token_strings;  // miss: filtered token stream
  std::vector<TokenId> ids;              // miss: session token ids (phase B)
  bool complete = true;
  std::string note;
};

/// Converts one trace's reduction (session token ids, private loop table)
/// into the self-contained local-id form stored in the cache. Local ids are
/// assigned by a left-to-right walk of the program, recursing into a loop
/// body at its first reference: for tokens this visitation order equals the
/// filtered stream's first-occurrence order (the walk is the expansion with
/// repetitions elided), and for loops it equals formation order — the two
/// properties rehydration relies on to reproduce shared-table ids.
NlrArtifact make_local_artifact(const NlrProgram& program, const LoopTable& table,
                                const TokenTable& tokens, bool complete, std::string note) {
  NlrArtifact art;
  art.complete = complete;
  art.note = std::move(note);

  std::map<TokenId, std::uint32_t> token_map;  // session id -> local id
  std::vector<std::optional<std::uint32_t>> loop_map(table.size());

  const auto map_token = [&](TokenId id) {
    const auto [it, inserted] = token_map.try_emplace(id, static_cast<std::uint32_t>(art.token_names.size()));
    if (inserted) art.token_names.push_back(tokens.name(id));
    return it->second;
  };
  const auto map_loop = [&](auto&& self, std::uint32_t id) -> std::uint32_t {
    if (loop_map[id]) return *loop_map[id];
    NlrBody local_body;
    for (const auto& item : table.body(id)) {
      if (item.is_loop())
        local_body.push_back(NlrItem::loop(self(self, item.id), item.count));
      else
        local_body.push_back(NlrItem::token(map_token(item.id)));
    }
    const auto local = static_cast<std::uint32_t>(art.loop_bodies.size());
    art.loop_bodies.push_back(std::move(local_body));
    loop_map[id] = local;
    return local;
  };
  for (const auto& item : program) {
    if (item.is_loop())
      art.program.push_back(NlrItem::loop(map_loop(map_loop, item.id), item.count));
    else
      art.program.push_back(NlrItem::token(map_token(item.id)));
  }
  return art;
}

}  // namespace

Session::Session(const trace::TraceStore& normal, const trace::TraceStore& faulty, FilterSpec filter,
                 NlrConfig nlr_config)
    : Session(normal, faulty, std::move(filter), nlr_config, SessionOptions{}) {}

Session::Session(const trace::TraceStore& normal, const trace::TraceStore& faulty, FilterSpec filter,
                 NlrConfig nlr_config, const SessionOptions& options)
    : filter_(std::move(filter)), nlr_config_(nlr_config) {
  build(normal, faulty, options);
}

void Session::build(const trace::TraceStore& normal, const trace::TraceStore& faulty,
                    const SessionOptions& options) {
  obs::Span span_session("session");
  // Union of both runs' keys: analyzable traces (present in both) keep their
  // JSM row; one-sided traces are recorded as dropped, never silently lost.
  for (const auto& key : normal.keys()) {
    if (faulty.contains(key))
      traces_.push_back(key);
    else
      dropped_.push_back({key, true, "missing in faulty run"});
  }
  for (const auto& key : faulty.keys())
    if (!normal.contains(key)) dropped_.push_back({key, true, "missing in normal run"});

  sched::Pool* pool = options.pool;
  const bool pooled = pool != nullptr && pool->jobs() > 1;
  // Known-body folding reads loop bodies formed by OTHER traces of the
  // session, so its reduction can neither run on private per-trace tables
  // nor be cached under per-trace keys; it keeps the serial path.
  const bool isolated_nlr = !nlr_config_.fold_known_bodies;
  sched::Cache* cache = isolated_nlr ? options.cache : nullptr;

  if ((!pooled && cache == nullptr) || !isolated_nlr) {
    build_serial(normal, faulty);
    return;
  }

  const std::size_t n = traces_.size();
  // Unit u in [0, n) is the normal run of traces_[u]; [n, 2n) the faulty run
  // of traces_[u - n] — the canonical (serial) interning order.
  std::vector<SideSlot> sides(2 * n);

  // Phase A (parallel): per trace, either rehydrate the cached NLR artifact
  // (no decode at all) or decode tolerantly and filter to token strings.
  {
    obs::Span span_decode("decode");
    const auto load = [&](std::size_t u) {
      const bool is_faulty = u >= n;
      const auto& store = is_faulty ? faulty : normal;
      const auto key = traces_[is_faulty ? u - n : u];
      SideSlot& slot = sides[u];
      if (cache != nullptr) {
        slot.cache_key = nlr_artifact_key(trace_fingerprint(store, key), filter_, nlr_config_);
        if (auto payload = cache->lookup(slot.cache_key, kArtifactNlr)) {
          if (auto artifact = decode_nlr_artifact(*payload)) {
            slot.complete = artifact->complete;
            slot.note = artifact->note;
            slot.artifact = std::move(artifact);
            return;
          }
        }
      }
      auto decoded = store.decode_tolerant(key);
      slot.complete = decoded.complete;
      slot.note = std::move(decoded.note);
      slot.token_strings = filter_.apply(decoded.events, store.registry());
    };
    if (pooled) {
      pool->parallel_for(2 * n, load);
    } else {
      for (std::size_t u = 0; u < 2 * n; ++u) load(u);
    }
  }

  health_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceHealth h{traces_[i], false, ""};
    const auto& nslot = sides[i];
    const auto& fslot = sides[n + i];
    if (!nslot.complete || !fslot.complete) {
      h.degraded = true;
      if (!nslot.complete) h.note = "normal run: " + nslot.note;
      if (!fslot.complete) h.note += (h.note.empty() ? "" : "; ") + ("faulty run: " + fslot.note);
    }
    health_.push_back(std::move(h));
  }

  obs::Span span_nlr("nlr");
  // Phase B (serial, canonical order): intern the token vocabulary. Artifact
  // vocabularies list names in stream first-occurrence order, so interning
  // them is indistinguishable from interning the stream itself — shared
  // token ids come out identical to a from-scratch serial build.
  std::vector<std::vector<TokenId>> token_maps(2 * n);  // artifact-local -> session
  for (std::size_t u = 0; u < 2 * n; ++u) {
    SideSlot& slot = sides[u];
    if (slot.artifact) {
      auto& map = token_maps[u];
      map.reserve(slot.artifact->token_names.size());
      for (const auto& name : slot.artifact->token_names) map.push_back(tokens_.intern(name));
    } else {
      slot.ids = tokens_.intern_all(slot.token_strings);
      slot.token_strings.clear();
      slot.token_strings.shrink_to_fit();
    }
  }

  // Phase C (parallel): reduce each cache-miss trace against a PRIVATE loop
  // table. With folding disabled a trace's reduction never reads bodies it
  // did not form itself, so the private result is isomorphic to the shared
  // one — phase D's remap makes the isomorphism explicit. Freshly reduced
  // traces are encoded and stored back to the cache here (tokens_ is only
  // read const from this point, so worker reads are safe).
  std::vector<LoopTable> private_tables(2 * n);
  std::vector<NlrProgram> private_programs(2 * n);
  {
    const auto reduce = [&](std::size_t u) {
      SideSlot& slot = sides[u];
      if (slot.artifact) return;
      private_programs[u] = build_nlr(slot.ids, private_tables[u], nlr_config_);
      if (cache != nullptr) {
        const auto artifact = make_local_artifact(private_programs[u], private_tables[u], tokens_,
                                                  slot.complete, slot.note);
        cache->store(slot.cache_key, kArtifactNlr, encode_nlr_artifact(artifact));
      }
    };
    if (pooled) {
      pool->parallel_for(2 * n, reduce);
    } else {
      for (std::size_t u = 0; u < 2 * n; ++u) reduce(u);
    }
  }

  // Phase D (serial, canonical order): commit loop bodies to the shared
  // table. Local ids — artifact or private — are in formation order, and a
  // body only references earlier locals, so a plain in-order intern of the
  // remapped bodies replays the exact intern sequence (and therefore the
  // exact loop/shape ids) of a serial build.
  normal_.reserve(n);
  faulty_.reserve(n);
  for (std::size_t u = 0; u < 2 * n; ++u) {
    SideSlot& slot = sides[u];
    const auto remap_program = [&](const NlrProgram& program, const std::vector<std::uint32_t>& loop_map,
                                   const std::vector<TokenId>* token_map) {
      NlrProgram out;
      out.reserve(program.size());
      for (const auto& item : program) {
        if (item.is_loop())
          out.push_back(NlrItem::loop(loop_map[item.id], item.count));
        else
          out.push_back(NlrItem::token(token_map ? (*token_map)[item.id] : item.id));
      }
      return out;
    };

    NlrProgram committed;
    if (slot.artifact) {
      const auto& art = *slot.artifact;
      const auto& tmap = token_maps[u];
      std::vector<std::uint32_t> loop_map(art.loop_bodies.size());
      for (std::size_t l = 0; l < art.loop_bodies.size(); ++l)
        loop_map[l] = loops_.intern(remap_program(art.loop_bodies[l], loop_map, &tmap));
      committed = remap_program(art.program, loop_map, &tmap);
    } else {
      const auto& table = private_tables[u];
      std::vector<std::uint32_t> loop_map(table.size());
      for (std::size_t l = 0; l < table.size(); ++l)
        loop_map[l] = loops_.intern(
            remap_program(table.body(static_cast<std::uint32_t>(l)), loop_map, nullptr));
      committed = remap_program(private_programs[u], loop_map, nullptr);
    }
    (u < n ? normal_ : faulty_).push_back(std::move(committed));
  }
}

void Session::build_serial(const trace::TraceStore& normal, const trace::TraceStore& faulty) {
  // Decode tolerantly: salvaged or tail-corrupt blobs contribute their clean
  // prefix and flag the trace as degraded instead of aborting the session.
  health_.reserve(traces_.size());
  std::vector<trace::TraceStore::DecodedTrace> normal_events;
  std::vector<trace::TraceStore::DecodedTrace> faulty_events;
  normal_events.reserve(traces_.size());
  faulty_events.reserve(traces_.size());
  {
    obs::Span span_decode("decode");
    for (const auto& key : traces_) {
      normal_events.push_back(normal.decode_tolerant(key));
      faulty_events.push_back(faulty.decode_tolerant(key));
      TraceHealth h{key, false, ""};
      const auto& n = normal_events.back();
      const auto& f = faulty_events.back();
      if (!n.complete || !f.complete) {
        h.degraded = true;
        if (!n.complete) h.note = "normal run: " + n.note;
        if (!f.complete) h.note += (h.note.empty() ? "" : "; ") + ("faulty run: " + f.note);
      }
      health_.push_back(std::move(h));
    }
  }

  // Normal run first, then faulty: formation-order interning makes loop ids
  // deterministic, and the normal run primes the table (§III-A heuristic).
  obs::Span span_nlr("nlr");
  normal_.reserve(traces_.size());
  faulty_.reserve(traces_.size());
  for (std::size_t i = 0; i < traces_.size(); ++i) {
    const auto ids = tokens_.intern_all(filter_.apply(normal_events[i].events, normal.registry()));
    normal_.push_back(build_nlr(ids, loops_, nlr_config_));
  }
  for (std::size_t i = 0; i < traces_.size(); ++i) {
    const auto ids = tokens_.intern_all(filter_.apply(faulty_events[i].events, faulty.registry()));
    faulty_.push_back(build_nlr(ids, loops_, nlr_config_));
  }
}

bool Session::any_degraded() const noexcept {
  if (!dropped_.empty()) return true;
  return std::any_of(health_.begin(), health_.end(),
                     [](const TraceHealth& h) { return h.degraded; });
}

std::vector<TraceHealth> store_health(const trace::TraceStore& normal,
                                      const trace::TraceStore& faulty) {
  std::vector<TraceHealth> out;
  for (const auto& key : normal.keys()) {
    if (!faulty.contains(key)) {
      out.push_back({key, true, "missing in faulty run"});
      continue;
    }
    std::string note;
    if (normal.blob(key).salvaged) note = "normal run: salvaged blob";
    if (faulty.blob(key).salvaged)
      note += (note.empty() ? "" : "; ") + std::string("faulty run: salvaged blob");
    if (!note.empty()) out.push_back({key, true, std::move(note)});
  }
  for (const auto& key : faulty.keys())
    if (!normal.contains(key)) out.push_back({key, true, "missing in normal run"});
  return out;
}

std::size_t Session::index_of(trace::TraceKey key) const {
  const auto it = std::find(traces_.begin(), traces_.end(), key);
  if (it == traces_.end()) throw std::out_of_range("Session: trace " + key.label() + " not in session");
  return static_cast<std::size_t>(it - traces_.begin());
}

DiffNlr Session::diffnlr(trace::TraceKey key) const {
  const auto i = index_of(key);
  return diff_nlr(normal_[i], faulty_[i], tokens_, loops_);
}

double Session::progress_ratio(std::size_t i) const {
  const auto normal_len = expand_nlr(normal_.at(i), loops_).size();
  const auto faulty_len = expand_nlr(faulty_.at(i), loops_).size();
  if (normal_len == 0) return 1.0;
  return static_cast<double>(faulty_len) / static_cast<double>(normal_len);
}

std::vector<double> Session::progress_ratios() const {
  std::vector<double> out(traces_.size());
  for (std::size_t i = 0; i < traces_.size(); ++i) out[i] = progress_ratio(i);
  return out;
}

std::size_t Session::least_progressed() const {
  if (traces_.empty()) throw std::logic_error("Session::least_progressed: empty session");
  const auto ratios = progress_ratios();
  std::size_t best = 0;
  for (std::size_t i = 1; i < ratios.size(); ++i)
    if (ratios[i] < ratios[best]) best = i;
  return best;
}

std::string Session::label() const {
  return filter_.name() + ".0K" + std::to_string(nlr_config_.k);
}

// --- Evaluation -------------------------------------------------------------

Evaluation evaluate(const Session& session, const AttrConfig& attr, Linkage linkage_method) {
  obs::Span span_evaluate("evaluate");
  Evaluation out;
  out.attr = attr;

  const std::size_t n = session.traces().size();
  std::vector<std::set<std::string>> attrs_normal(n);
  std::vector<std::set<std::string>> attrs_faulty(n);
  {
    obs::Span span_attrs("attributes");
    for (std::size_t i = 0; i < n; ++i) {
      attrs_normal[i] =
          mine_attributes(session.normal_nlr(i), session.tokens(), session.loops(), attr);
      attrs_faulty[i] =
          mine_attributes(session.faulty_nlr(i), session.tokens(), session.loops(), attr);
    }
  }
  {
    obs::Span span_jsm("jsm");
    out.jsm_normal = jsm_from_attributes(attrs_normal);
    out.jsm_faulty = jsm_from_attributes(attrs_faulty);
    out.jsm_d = jsm_diff(out.jsm_normal, out.jsm_faulty);
    out.scores = suspicion_scores(out.jsm_d);
  }

  if (n >= 2) {
    obs::Span span_cluster("cluster");
    out.dend_normal = linkage(similarity_to_distance(out.jsm_normal), linkage_method);
    out.dend_faulty = linkage(similarity_to_distance(out.jsm_faulty), linkage_method);
    out.bscore = bscore(out.dend_normal, out.dend_faulty, n);
  }
  return out;
}

SingleRunEvaluation evaluate_single_run(const trace::TraceStore& store, const FilterSpec& filter,
                                        const AttrConfig& attr, const NlrConfig& nlr,
                                        Linkage linkage_method) {
  obs::Span span_evaluate("evaluate");
  SingleRunEvaluation out;
  out.traces = store.keys();

  TokenTable tokens;
  LoopTable loops;
  std::vector<std::set<std::string>> attrs;
  attrs.reserve(out.traces.size());
  for (const auto& key : out.traces) {
    const auto program = build_nlr(tokens.intern_all(filter.apply(store, key)), loops, nlr);
    attrs.push_back(mine_attributes(program, tokens, loops, attr));
  }
  out.jsm = jsm_from_attributes(attrs);

  const std::size_t n = out.traces.size();
  out.outlier_scores.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) total += out.jsm(i, j);
    out.outlier_scores[i] = n > 1 ? 1.0 - total / static_cast<double>(n - 1) : 0.0;
  }
  if (n >= 2) out.dendrogram = linkage(similarity_to_distance(out.jsm), linkage_method);
  return out;
}

// --- suspicious selection -------------------------------------------------------

std::vector<std::size_t> select_suspicious(const std::vector<double>& scores, std::size_t top_n,
                                           double sigmas) {
  constexpr double kEps = 1e-9;
  const auto summary = util::summarize(scores);
  const double threshold = summary.mean + sigmas * summary.stddev;

  std::vector<std::size_t> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });

  std::vector<std::size_t> picked;
  for (const auto i : order) {
    if (picked.size() >= top_n) break;
    if (scores[i] <= kEps) break;
    if (scores[i] < threshold && !picked.empty()) break;
    picked.push_back(i);
  }
  return picked;
}

// --- RankingTable -------------------------------------------------------------

std::string RankingTable::render() const {
  util::TextTable table({"Filter", "Attributes", "B-score", "Top Processes", "Top Threads"});
  for (const auto& row : rows) {
    std::vector<std::string> procs;
    for (const auto p : row.top_processes) procs.push_back(std::to_string(p));
    table.add_row({row.filter_label, row.attr_label, util::format_double(row.bscore),
                   util::join(procs, ", "), util::join(row.top_threads, ", ")});
  }
  return table.render();
}

std::string RankingTable::consensus_thread() const {
  // First-place finishes weigh 3, second 2, anything else in the list 1.
  std::map<std::string, int> votes;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.top_threads.size(); ++i)
      votes[row.top_threads[i]] += i == 0 ? 3 : (i == 1 ? 2 : 1);
  }
  std::string best;
  int best_votes = 0;
  for (const auto& [label, v] : votes) {
    if (v > best_votes) {
      best = label;
      best_votes = v;
    }
  }
  return best;
}

int RankingTable::consensus_process() const {
  std::map<int, int> votes;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.top_processes.size(); ++i)
      votes[row.top_processes[i]] += i == 0 ? 3 : (i == 1 ? 2 : 1);
  }
  int best = -1;
  int best_votes = 0;
  for (const auto& [proc, v] : votes) {
    if (v > best_votes) {
      best = proc;
      best_votes = v;
    }
  }
  return best;
}

// --- sweep ---------------------------------------------------------------------

namespace {

/// One ranking row from an Evaluation. `traces` is the session trace list
/// (keys present in both stores, sorted) — computable without any decode,
/// which is what lets fully cached rows skip Session construction entirely.
RankingRow make_row(const Evaluation& eval, const SweepConfig& config,
                    const std::vector<trace::TraceKey>& traces, std::size_t filter_index,
                    std::size_t attr_index) {
  RankingRow row;
  row.filter_label =
      config.filters[filter_index].name() + ".0K" + std::to_string(config.pipeline.nlr.k);
  row.attr_label = config.attributes[attr_index].name();
  row.bscore = eval.bscore;
  row.filter_index = filter_index;
  row.attr_index = attr_index;

  const auto top = select_suspicious(eval.scores, config.pipeline.top_n,
                                     config.pipeline.threshold_sigmas);
  for (const auto i : top) row.top_threads.push_back(traces[i].label());

  // Process-level aggregation: mean suspicion across the process's
  // threads, then the same selection rule.
  std::map<int, std::pair<double, int>> per_proc;  // proc -> (sum, count)
  for (std::size_t i = 0; i < traces.size(); ++i) {
    auto& [sum, count] = per_proc[traces[i].proc];
    sum += eval.scores[i];
    ++count;
  }
  std::vector<int> procs;
  std::vector<double> proc_scores;
  for (const auto& [proc, agg] : per_proc) {
    procs.push_back(proc);
    proc_scores.push_back(agg.first / agg.second);
  }
  const auto top_procs = select_suspicious(proc_scores, config.pipeline.top_n,
                                           config.pipeline.threshold_sigmas);
  for (const auto i : top_procs) row.top_processes.push_back(procs[i]);
  return row;
}

}  // namespace

RankingTable sweep(const trace::TraceStore& normal, const trace::TraceStore& faulty,
                   const SweepConfig& config) {
  obs::Span span_sweep("sweep");
  sched::Pool pool(sched::resolve_jobs(config.analysis_threads));
  sched::Cache* cache = config.cache;

  const std::size_t n_filters = config.filters.size();
  const std::size_t n_attrs = config.attributes.size();

  // The session trace list (keys in both stores, sorted) — needed for row
  // labels even when every Evaluation comes from the cache.
  std::vector<trace::TraceKey> common;
  for (const auto& key : normal.keys())
    if (faulty.contains(key)) common.push_back(key);

  // Evaluation pre-pass: rows whose cached artifact rehydrates need no
  // recompute; filters where EVERY row hits skip Session construction (and
  // with it every decode and NLR build) — the warm-rerun fast path.
  std::vector<std::vector<std::optional<Evaluation>>> results(
      n_filters, std::vector<std::optional<Evaluation>>(n_attrs));
  std::vector<std::string> eval_keys(n_filters * n_attrs);
  if (cache != nullptr) {
    const auto normal_fp = store_fingerprint(normal);
    const auto faulty_fp = store_fingerprint(faulty);
    for (std::size_t f = 0; f < n_filters; ++f) {
      for (std::size_t a = 0; a < n_attrs; ++a) {
        auto& key = eval_keys[f * n_attrs + a];
        key = eval_artifact_key(normal_fp, faulty_fp, config.filters[f], config.pipeline.nlr,
                                config.attributes[a], config.pipeline.linkage);
        if (auto payload = cache->lookup(key, kArtifactEval)) {
          if (auto eval = decode_evaluation(*payload)) results[f][a] = std::move(*eval);
        }
      }
    }
  }

  // Task graph: one Session task per filter that still needs one, one
  // Evaluation task per missing row depending on its filter's Session.
  // Submission order (filter 0's session, its evaluations, filter 1, ...)
  // is exactly the serial execution order, which Graph::run reproduces at
  // jobs == 1; at higher job counts only scheduling changes — results land
  // in (f, a) slots and are committed below in submission order.
  std::vector<std::unique_ptr<Session>> sessions(n_filters);
  sched::Graph graph;
  for (std::size_t f = 0; f < n_filters; ++f) {
    bool all_cached = n_attrs > 0;
    for (std::size_t a = 0; a < n_attrs && all_cached; ++a)
      if (!results[f][a]) all_cached = false;
    if (all_cached) continue;

    const auto session_task = graph.add({}, [&, f] {
      SessionOptions session_options;
      session_options.pool = &pool;
      session_options.cache = cache;
      sessions[f] = std::make_unique<Session>(normal, faulty, config.filters[f],
                                              config.pipeline.nlr, session_options);
    });
    for (std::size_t a = 0; a < n_attrs; ++a) {
      if (results[f][a]) continue;
      graph.add({session_task}, [&, f, a] {
        auto eval = evaluate(*sessions[f], config.attributes[a], config.pipeline.linkage);
        if (cache != nullptr)
          cache->store(eval_keys[f * n_attrs + a], kArtifactEval, encode_evaluation(eval));
        results[f][a] = std::move(eval);
      });
    }
  }
  graph.run(pool, "sweep");

  RankingTable table;
  table.rows.reserve(n_filters * n_attrs);
  for (std::size_t f = 0; f < n_filters; ++f)
    for (std::size_t a = 0; a < n_attrs; ++a)
      table.rows.push_back(make_row(*results[f][a], config, common, f, a));
  std::sort(table.rows.begin(), table.rows.end(), [](const RankingRow& a, const RankingRow& b) {
    if (a.bscore != b.bscore) return a.bscore < b.bscore;
    if (a.filter_index != b.filter_index) return a.filter_index < b.filter_index;
    return a.attr_index < b.attr_index;
  });
  return table;
}

// --- DiffTrace facade --------------------------------------------------------------

DiffTrace::DiffTrace(trace::TraceStore normal, trace::TraceStore faulty)
    : normal_(std::move(normal)), faulty_(std::move(faulty)) {}

Session DiffTrace::make_session(const FilterSpec& filter, const NlrConfig& nlr) const {
  return Session(normal_, faulty_, filter, nlr);
}

RankingTable DiffTrace::rank(const SweepConfig& config) const {
  return sweep(normal_, faulty_, config);
}

analyze::CheckReport DiffTrace::check_normal(const analyze::CheckOptions& options) const {
  return analyze::run_checks(normal_, options);
}

analyze::CheckReport DiffTrace::check_faulty(const analyze::CheckOptions& options) const {
  return analyze::run_checks(faulty_, options);
}

}  // namespace difftrace::core
