// serve_warm: closed-loop clients (zero think time) call an in-process
// serve::Server over protocol v2 after a serial pass has warmed every
// shared cache. For a traced run the same requests are replayed twice
// more: straight into Dispatcher::HandleStreaming (dispatch time without
// admission and protocol), and through a rebuild of the dispatcher's
// per-request work from the library's entry points with the timing
// decorators around each context's cache.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blackbox/narrow_optimizer.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "opt/optimizer.h"
#include "runtime/cache_store.h"
#include "runtime/oracle_stack.h"
#include "runtime/sink/stages.h"
#include "runtime/thread_pool.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "src/harness.h"
#include "src/probe.h"
#include "src/stats.h"
#include "storage/layout.h"
#include "storage/resource_space.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace perfbench {
namespace {

namespace cs = costsense;

constexpr cs::serve::AnalysisKind kKinds[] = {
    cs::serve::AnalysisKind::kDiscovery, cs::serve::AnalysisKind::kWorstCase,
    cs::serve::AnalysisKind::kGtcSeries};
constexpr size_t kNumKinds = std::size(kKinds);

/// Every distinct request of the mix: kind x layout x query x loadgen's
/// delta sets, in a fixed canonical order.
std::vector<cs::serve::AnalysisRequest> MixRequests() {
  const cs::storage::LayoutPolicy policies[] = {
      cs::storage::LayoutPolicy::kSharedDevice,
      cs::storage::LayoutPolicy::kPerTableAndIndex};
  const std::vector<std::vector<double>> delta_sets = {
      {100.0}, {2.0, 10.0, 100.0}, {10.0, 1000.0}};
  std::vector<cs::serve::AnalysisRequest> out;
  for (cs::serve::AnalysisKind kind : kKinds) {
    for (cs::storage::LayoutPolicy policy : policies) {
      for (int qn : QueryNumbers()) {
        for (const std::vector<double>& deltas : delta_sets) {
          cs::serve::AnalysisRequest r;
          r.kind = kind;
          r.policy = policy;
          r.query_number = static_cast<uint16_t>(qn);
          r.deltas = deltas;
          out.push_back(std::move(r));
        }
      }
    }
  }
  return out;
}

/// One client connection: an in-process transport pair whose server end
/// runs a serve::Session on its own thread, as a socket session would.
class Connection {
 public:
  explicit Connection(cs::serve::Server& server) {
    auto [client, server_end] = cs::serve::InProcessTransport::CreatePair();
    client_ = std::move(client);
    std::unique_ptr<cs::serve::FrameTransport> transport =
        std::move(server_end);
    session_ = std::thread([&server, t = std::move(transport)]() mutable {
      cs::serve::Session session(server, std::move(t));
      const cs::Status st = session.Run();
      if (!st.ok()) {
        std::fprintf(stderr, "serve_warm: session: %s\n",
                     st.ToString().c_str());
      }
    });
  }
  ~Connection() {
    client_->Close();
    session_.join();
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  cs::Result<cs::serve::AnalysisResponse> Call(
      const cs::serve::AnalysisRequest& request) {
    return cs::serve::CallV2(*client_, request);
  }

 private:
  std::unique_ptr<cs::serve::InProcessTransport> client_;
  std::thread session_;
};

/// One issued request: its index in the mix, its latency and outcome.
struct Issued {
  size_t index = 0;
  double ms = 0.0;
  Outcome outcome = Outcome::kOk;
};

/// The request stream of one client: seeded passes over the whole mix,
/// each pass a fresh permutation.
class ClientStream {
 public:
  ClientStream(uint64_t seed, size_t client, size_t mix_size)
      : rng_(cs::Rng(seed).Fork(100 + client)),
        order_(mix_size),
        pos_(mix_size) {}
  size_t Next() {
    if (pos_ == order_.size()) {
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      rng_.Shuffle(order_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  cs::Rng rng_;
  std::vector<size_t> order_;
  size_t pos_;
};

/// Runs `body(client)` on `clients` threads and waits for all of them.
template <typename Fn>
void OnClients(size_t clients, Fn body) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
}

/// The dispatcher's per-(query, layout) context rebuilt from entry points:
/// optimizer, NarrowOptimizer, the timing base under the cache, and the
/// cache warmed from the server's snapshot.
struct ReplicaContext {
  ReplicaContext(const cs::catalog::Catalog& catalog, int query_number,
                 cs::storage::LayoutPolicy policy,
                 const cs::runtime::OracleStackBuilder& builder,
                 LayerProbe& probe)
      : query(cs::tpch::MakeTpchQuery(catalog, query_number)),
        layout(policy, catalog, cs::query::ReferencedTables(query)),
        space(layout.BuildResourceSpace()),
        optimizer(catalog, layout, space),
        narrow(optimizer, query, /*white_box=*/true),
        below(narrow, probe),
        stack(builder.Build(below, query.name + "/" +
                                       cs::storage::LayoutPolicyName(policy))),
        baseline(space.BaselineCosts()) {
    AboveCacheTimer above(stack.cache(), probe);
    const cs::core::OracleResult initial = above.Optimize(baseline);
    COSTSENSE_CHECK(initial.usage.has_value());
    initial_plan_id = initial.plan_id;
    initial_usage = *initial.usage;
  }

  cs::query::Query query;
  cs::storage::StorageLayout layout;
  cs::storage::ResourceSpace space;
  cs::opt::Optimizer optimizer;
  cs::blackbox::NarrowOptimizer narrow;
  BelowCacheTimer below;
  cs::runtime::OracleStack stack;
  cs::core::CostVector baseline;
  std::string initial_plan_id;
  cs::core::UsageVector initial_usage;
};

struct ServerSetup {
  std::unique_ptr<cs::runtime::ThreadPool> pool;
  std::unique_ptr<cs::serve::Server> server;
};

class ServeWorkload {
 public:
  explicit ServeWorkload(const RunArgs& args)
      : args_(args),
        config_(MakeEngineConfig(args.threads)),
        mix_(MixRequests()),
        snapshot_path_(args.work_dir + "/serve_warm_cache.snap") {}

  RunResult Run();

 private:
  /// Engine, pool and server creation; returns its wall time.
  double Setup();
  /// The serial pass that materializes every context, warms every cache
  /// and records each request's reference body.
  void WarmUp(RunResult& result);
  /// The timed closed loop; returns each client's issued requests.
  std::vector<std::vector<Issued>> ClosedLoop(RunResult& result);
  /// Direct Dispatcher::HandleStreaming replay; dispatch latencies in ms.
  std::vector<double> DispatchReplay(
      const std::vector<std::vector<Issued>>& issued, RunResult& result);
  /// The rebuilt per-request work with the timing decorators; returns
  /// its wall time in seconds.
  double LayerReplay(const std::vector<std::vector<Issued>>& issued,
                     LayerProbe& probe, cs::runtime::PoolStats* pool_stats,
                     RunResult& result);
  std::string RenderBody(const cs::serve::AnalysisRequest& request,
                         ReplicaContext& ctx, cs::runtime::ThreadPool& pool,
                         LayerProbe& probe) const;

  size_t clients() const { return args_.threads; }

  const RunArgs& args_;
  const cs::engine::EngineConfig config_;
  const std::vector<cs::serve::AnalysisRequest> mix_;
  const std::string snapshot_path_;
  std::vector<std::string> reference_;
  std::optional<ServerSetup> setup_;
};

double ServeWorkload::Setup() {
  setup_.reset();  // the previous server is torn down outside the timing
  const int64_t begin = NowNs();
  cs::Result<cs::engine::Engine> engine = cs::engine::Engine::Create(config_);
  COSTSENSE_CHECK(engine.ok());
  ServerSetup s;
  s.pool = std::make_unique<cs::runtime::ThreadPool>(args_.threads);
  cs::serve::ServerOptions options;
  options.max_inflight = clients();
  options.dispatcher.cache = config_.cache;
  options.dispatcher.pool = s.pool.get();
  options.dispatcher.discovery.random_samples = 16;
  options.dispatcher.discovery.sampled_vertices = 48;
  options.dispatcher.discovery.bisection_depth = 3;
  options.dispatcher.discovery.completeness_rounds = 1;
  // The traced run exports the warm caches to a snapshot for the rebuild.
  if (args_.trace) options.dispatcher.cache_path = snapshot_path_;
  s.server = std::make_unique<cs::serve::Server>(std::move(options));
  setup_.emplace(std::move(s));
  return static_cast<double>(NowNs() - begin) / 1e9;
}

void ServeWorkload::WarmUp(RunResult& result) {
  Connection connection(*setup_->server);
  reference_.clear();
  for (const cs::serve::AnalysisRequest& request : mix_) {
    const cs::Result<cs::serve::AnalysisResponse> r = connection.Call(request);
    if (!r.ok() || !r->ok()) {
      result.Fail("warm-up request failed: " +
                  (r.ok() ? r->body : r.status().ToString()));
      reference_.emplace_back();
      continue;
    }
    reference_.push_back(r->body);
  }
}

std::vector<std::vector<Issued>> ServeWorkload::ClosedLoop(RunResult& result) {
  std::vector<std::vector<Issued>> issued(clients());
  std::vector<size_t> mismatches(clients(), 0);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args_.seconds * 1e9);
  OnClients(clients(), [&](size_t c) {
    Connection connection(*setup_->server);
    ClientStream stream(args_.seed, c, mix_.size());
    while (NowNs() < deadline) {
      Issued item;
      item.index = stream.Next();
      const int64_t begin = NowNs();
      const cs::Result<cs::serve::AnalysisResponse> r =
          connection.Call(mix_[item.index]);
      item.ms = static_cast<double>(NowNs() - begin) / 1e6;
      if (r.ok() && r->code == cs::StatusCode::kUnavailable) {
        item.outcome = Outcome::kRefused;
      } else if (!r.ok() || !r->ok()) {
        item.outcome = Outcome::kFailed;
      } else if (r->body != reference_[item.index]) {
        item.outcome = Outcome::kFailed;
        ++mismatches[c];
      }
      issued[c].push_back(item);
    }
  });
  size_t total = 0;
  for (size_t m : mismatches) total += m;
  if (total > 0) {
    result.Fail(cs::StrFormat(
        "%zu timed response(s) differ from their warm-up reference", total));
  }
  return issued;
}

std::vector<double> ServeWorkload::DispatchReplay(
    const std::vector<std::vector<Issued>>& issued, RunResult& result) {
  std::vector<std::vector<double>> ms(clients());
  std::vector<size_t> mismatches(clients(), 0);
  cs::serve::Dispatcher& dispatcher = setup_->server->dispatcher();
  OnClients(clients(), [&](size_t c) {
    for (const Issued& item : issued[c]) {
      std::string body;
      cs::runtime::sink::StringSink sink(&body);
      const int64_t begin = NowNs();
      const cs::Status st = dispatcher.HandleStreaming(mix_[item.index], sink);
      ms[c].push_back(static_cast<double>(NowNs() - begin) / 1e6);
      if (!st.ok() || body != reference_[item.index]) ++mismatches[c];
    }
  });
  std::vector<double> all;
  size_t total = 0;
  for (size_t c = 0; c < clients(); ++c) {
    all.insert(all.end(), ms[c].begin(), ms[c].end());
    total += mismatches[c];
  }
  if (total > 0) {
    result.Fail(cs::StrFormat(
        "%zu direct dispatch(es) differ from the served bodies", total));
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::string ServeWorkload::RenderBody(const cs::serve::AnalysisRequest& request,
                                      ReplicaContext& ctx,
                                      cs::runtime::ThreadPool& pool,
                                      LayerProbe& probe) const {
  // Dispatcher::Render's fault-free path for a band request.
  const double band =
      *std::max_element(request.deltas.begin(), request.deltas.end());
  const cs::core::Box box =
      cs::core::Box::MultiplicativeBand(ctx.baseline, band);
  cs::Rng rng(setup_->server->dispatcher().options().seed);
  cs::core::DiscoveryOptions discovery =
      setup_->server->dispatcher().options().discovery;
  discovery.pool = &pool;
  cs::Result<cs::core::DiscoveryResult> d = cs::Status::Internal("not run");
  {
    AboveCacheTimer above(ctx.stack.cache(), probe);
    d = TracedDiscover(above, box, rng, discovery, probe);
  }
  if (!d.ok()) return d.status().ToString();
  std::vector<cs::core::PlanUsage> plans;
  for (const cs::core::DiscoveredPlan& dp : d->plans) plans.push_back(dp.plan);

  std::string body = cs::StrFormat(
      "costsense-serve v%u %s\n"
      "query=%s policy=%s dims=%zu\n"
      "band_delta=%s\n"
      "initial_plan=%s\n"
      "plans=%zu complete=%d\n",
      cs::serve::kProtocolVersion, cs::serve::AnalysisKindName(request.kind),
      ctx.query.name.c_str(), cs::storage::LayoutPolicyName(request.policy),
      ctx.space.dims(), cs::FormatDouble(band).c_str(),
      ctx.initial_plan_id.c_str(), plans.size(), d->complete ? 1 : 0);
  if (request.kind == cs::serve::AnalysisKind::kDiscovery) {
    for (size_t i = 0; i < d->plans.size(); ++i) {
      body += cs::StrFormat("plan %zu: %s margin=%s\n", i,
                            d->plans[i].plan.plan_id.c_str(),
                            cs::FormatDouble(d->plans[i].margin).c_str());
    }
    return body;
  }
  const size_t count = request.kind == cs::serve::AnalysisKind::kWorstCase
                           ? 1
                           : request.deltas.size();
  for (size_t i = 0; i < count; ++i) {
    const cs::Result<cs::core::WorstCaseResult> wc = TracedLp(
        ctx.initial_usage, plans,
        cs::core::Box::MultiplicativeBand(ctx.baseline, request.deltas[i]),
        &pool, probe);
    if (!wc.ok()) return wc.status().ToString();
    body += cs::StrFormat("delta=%s gtc=%s rival=%s\n",
                          cs::FormatDouble(request.deltas[i]).c_str(),
                          cs::FormatDouble(wc->gtc).c_str(),
                          wc->worst_rival.c_str());
  }
  return body;
}

double ServeWorkload::LayerReplay(
    const std::vector<std::vector<Issued>>& issued, LayerProbe& probe,
    cs::runtime::PoolStats* pool_stats, RunResult& result) {
  const cs::catalog::Catalog catalog = cs::tpch::MakeTpchCatalog(100.0);

  cs::runtime::CacheStoreOptions store_options;
  store_options.path = snapshot_path_;
  store_options.catalog_hash = catalog.Fingerprint();
  store_options.mantissa_bits = config_.cache.mantissa_bits;
  cs::runtime::CacheStore store(std::move(store_options));
  cs::runtime::OracleStackBuilder builder;
  builder.WithCache(config_.cache);
  builder.WithStore(&store);
  std::map<std::pair<int, int>, std::unique_ptr<ReplicaContext>> contexts;
  for (const cs::serve::AnalysisRequest& r : mix_) {
    const auto key = std::make_pair(static_cast<int>(r.query_number),
                                    static_cast<int>(r.policy));
    if (contexts.count(key) != 0) continue;
    contexts.emplace(key, std::make_unique<ReplicaContext>(
                              catalog, r.query_number, r.policy, builder,
                              probe));
  }

  cs::runtime::ThreadPool pool(args_.threads);
  std::vector<size_t> mismatches(clients(), 0);
  const int64_t begin = NowNs();
  OnClients(clients(), [&](size_t c) {
    for (const Issued& item : issued[c]) {
      const cs::serve::AnalysisRequest& request = mix_[item.index];
      ReplicaContext& ctx = *contexts.at(std::make_pair(
          static_cast<int>(request.query_number),
          static_cast<int>(request.policy)));
      if (RenderBody(request, ctx, pool, probe) !=
          reference_[item.index]) {
        ++mismatches[c];
      }
    }
  });
  const double wall = static_cast<double>(NowNs() - begin) / 1e9;
  size_t total = 0;
  for (size_t m : mismatches) total += m;
  if (total > 0) {
    result.Fail(cs::StrFormat(
        "%zu rebuilt response(s) differ from the served bodies", total));
  }
  for (const auto& [key, ctx] : contexts) {
    probe.AddCacheStats(ctx->stack.cache().stats());
  }
  *pool_stats = pool.stats();
  return wall;
}

RunResult ServeWorkload::Run() {
  RunResult result;
  if (args_.trace) std::remove(snapshot_path_.c_str());
  // Set-up (engine, pool, server) is repeated and its median taken; the
  // warm-up pass, which dominates, runs once on the last server.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) setup_s.push_back(Setup());
  const int64_t warm_begin = NowNs();
  WarmUp(result);
  const double warm_s = static_cast<double>(NowNs() - warm_begin) / 1e9;

  cs::serve::Server& server = *setup_->server;
  const size_t misses_before = server.stats().dispatcher.cache.misses;
  const double cpu_begin = CpuSeconds();
  const int64_t begin = NowNs();
  const std::vector<std::vector<Issued>> issued = ClosedLoop(result);
  const double wall = static_cast<double>(NowNs() - begin) / 1e9;
  const double cpu = CpuSeconds() - cpu_begin;
  const cs::serve::ServerStats stats = server.stats();
  const size_t timed_misses = stats.dispatcher.cache.misses - misses_before;
  if (timed_misses != 0) {
    result.Fail(cs::StrFormat(
        "%zu cache miss(es) in the timed phase: the cache was not warm",
        timed_misses));
  }

  Outcomes all;
  Outcomes by_kind[kNumKinds];
  for (const std::vector<Issued>& list : issued) {
    for (const Issued& item : list) {
      all.Add(item.outcome, item.ms);
      by_kind[static_cast<size_t>(mix_[item.index].kind)].Add(item.outcome,
                                                              item.ms);
    }
  }
  if (all.failed() > 0) {
    result.Fail(cs::StrFormat("%zu of %zu timed request(s) failed or refused",
                              all.failed(), all.attempted()));
  }
  result.attempted = all.attempted();
  result.failed = all.failed();
  const std::vector<double> latencies = all.SortedLatencies();
  const Percentile p50 = NearestRank(latencies, 0.5);
  const Percentile p99 = NearestRank(latencies, 0.99);
  result.Set("setup_s", Median(setup_s) + warm_s);
  result.Set("analysis_wall_s", wall);
  result.Set("cpu_s", cpu);
  result.Set("peak_rss_mb", PeakRssMb());
  result.Set("ok_share", all.ok_share());
  result.Set("requests_per_s",
             static_cast<double>(all.attempted() - all.failed()) / wall);
  result.Set("lat_p50_ms", p50.value);
  result.Set("lat_p99_ms", p99.value);
  const char* kind_metric[kNumKinds] = {"lat_discovery_p99_ms",
                                        "lat_worstcase_p99_ms",
                                        "lat_gtcseries_p99_ms"};
  result.Note(cs::StrFormat(
      "requests=%zu failed=%zu refused=%zu failed_share=%.6g "
      "setup=%.4f s (median of %d) + warm-up %.3f s",
      all.attempted(), all.failed(), all.refused(), all.failed_share(),
      Median(setup_s), kSetups, warm_s));
  result.Note(cs::StrFormat("lat_p50_ms over %zu samples (%zu beyond)",
                            p50.samples, p50.beyond));
  result.Note(cs::StrFormat("lat_p99_ms over %zu samples (%zu beyond)%s",
                            p99.samples, p99.beyond,
                            p99.supported() ? "" : " UNSUPPORTED TAIL"));
  for (size_t k = 0; k < kNumKinds; ++k) {
    const Percentile kp = NearestRank(by_kind[k].SortedLatencies(), 0.99);
    result.Set(kind_metric[k], kp.value);
    result.Note(cs::StrFormat("%s over %zu samples (%zu beyond)%s",
                              kind_metric[k], kp.samples, kp.beyond,
                              kp.supported() ? "" : " UNSUPPORTED TAIL"));
  }
  if (!args_.trace) return result;

  // Traced run: hand the warm caches to the rebuild, then replay the exact
  // request lists the clients issued.
  const cs::Status persisted = server.dispatcher().PersistCache();
  if (!persisted.ok()) result.Fail(persisted.ToString());
  const std::vector<double> dispatch_ms = DispatchReplay(issued, result);
  LayerProbe probe;
  cs::runtime::PoolStats pool_stats;
  const double traced_wall = LayerReplay(issued, probe, &pool_stats, result);
  std::remove(snapshot_path_.c_str());

  const LayerProbe::Totals t = probe.totals();
  SetLayerMetrics(t, pool_stats, CatalogMs(), result);
  if (t.opt_calls != 0) {
    result.Fail(cs::StrFormat(
        "the rebuilt timed phase reached the optimizer %zu time(s)",
        t.opt_calls));
  }
  const double dispatch_p50 = NearestRank(dispatch_ms, 0.5).value;
  result.Set("exp.series_ms", 0.0);  // FigureRunner is not on the serve path
  result.Set("serve.dispatch_ms_p50", dispatch_p50);
  result.Set("serve.dispatch_ms_p99", NearestRank(dispatch_ms, 0.99).value);
  result.Set("serve.overhead_ms_p50", p50.value - dispatch_p50);
  result.Set("serve.admission_peak_inflight",
             static_cast<double>(stats.admission.peak_inflight));
  result.Set("serve.admission_rejected",
             static_cast<double>(stats.admission.rejected));
  result.Set("trace.overhead_share", traced_wall / wall - 1.0);
  result.Note(cs::StrFormat(
      "rebuilt (traced) replay %.3f s vs served (untraced) %.3f s; "
      "%zu direct dispatches",
      traced_wall, wall, dispatch_ms.size()));
  return result;
}

}  // namespace

RunResult RunServeWarm(const RunArgs& args) {
  return ServeWorkload(args).Run();
}

}  // namespace perfbench
