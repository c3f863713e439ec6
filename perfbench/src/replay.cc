// The host-replay workload (fanout).
//
// One single-threaded, open-loop driver replays seeded traffic straight into
// RcbHost::Route. Each signed poll is built ahead of its due time with
// EncodePollRequest and HmacSha256Hex and sent when its slot at the fixed
// offered rate comes up, late or not. The driver times every call it makes
// from outside — ParseHttpRequest, RcbHost::Route, HttpResponse::Serialize,
// Browser::MutateDocument and EventLoop::RunUntil — so no participant
// browser, snippet or network sits in the timed path.
#include <algorithm>
#include <array>
#include <memory>
#include <queue>

#include "perfbench/src/attribution.h"
#include "perfbench/src/bench.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/pages.h"
#include "src/crypto/hmac.h"
#include "src/host/rcb_host.h"
#include "src/html/parser.h"
#include "src/http/http_parser.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

struct ReplaySpec {
  size_t sessions;
  size_t pollers;              // signed pollers per session
  int64_t poll_interval_ms;    // per poller, session time
  int64_t edit_interval_ms;    // one host edit per session per interval
  uint32_t cofill_one_in;      // 1 poll in N carries a co-fill
  double offered_polls_per_s;  // fixed offered rate, wall time
};

// 1,024 sessions x 8 pollers on ~1 KB seeded pages, full snapshots, delta
// off. The offered rate keeps the host at about a tenth of one core, so
// request latency shows service time plus the queueing bursts cause rather
// than a backlog. At 30,000 and 15,000 polls/s queueing amplified the speed
// swings of a shared machine: a 15% slower set of runs read 33% worse on
// request_p99_us.
constexpr ReplaySpec kFanout = {1024, 8, 1000, 2000, 16, 7500};

// Setups per run; setup_s is their median.
constexpr int kSetups = 5;
// A run that falls this far behind its schedule stops sending; what is left
// counts as failed.
constexpr double kOverrunFactor = 3.0;

struct Poller {
  size_t session = 0;
  std::string pid;
  uint64_t seq = 0;
  int64_t acked_ms = -1;
};

struct Session {
  std::string id;
  rcb::HostSession* hosted = nullptr;
  std::unique_ptr<ContentOracle> oracle;
  int form_index = -1;
  uint64_t edits = 0;
};

// One host with its sessions and joined pollers. Member order keeps the
// host alive past the sessions' oracles (which hold its browsers), and the
// network and loop past the host.
struct World {
  std::unique_ptr<rcb::EventLoop> loop;
  std::unique_ptr<rcb::Network> network;
  std::unique_ptr<rcb::RcbHost> host;
  std::vector<Session> sessions;
  std::vector<Poller> pollers;
};

// The participant id the agent's initial page announces.
std::string PidFromPage(const std::string& page) {
  const std::string marker = "name=\"rcb-pid\" content=\"";
  size_t at = page.find(marker);
  if (at == std::string::npos) {
    return "";
  }
  at += marker.size();
  size_t end = page.find('"', at);
  return end == std::string::npos ? "" : page.substr(at, end - at);
}

rcb::HttpResponse RouteRequest(rcb::RcbHost* host, rcb::HttpMethod method,
                               const std::string& target) {
  rcb::HttpRequest request;
  request.method = method;
  request.target = target;
  return host->Route(request);
}

// Index of the page's first form among the interactive elements — the
// data-rcb-id a participant's co-fill action names.
int FormIndex(rcb::Document* document) {
  std::vector<rcb::Element*> interactive =
      rcb::ContentGenerator::InteractiveElements(document);
  for (size_t i = 0; i < interactive.size(); ++i) {
    if (interactive[i]->tag_name() == "form") {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// A scheduled driver event: a host edit or one poller's poll.
struct Event {
  int64_t t_us = 0;  // session (simulated) time
  bool poll = false;
  uint32_t index = 0;  // poller or session
  bool operator>(const Event& other) const {
    if (t_us != other.t_us) return t_us > other.t_us;
    if (poll != other.poll) return poll;  // edits first at equal times
    return index > other.index;
  }
};

class ReplayRun {
 public:
  ReplayRun(const ReplaySpec& spec, const RunOptions& options)
      : spec_(spec),
        options_(options),
        rng_(options.seed),
        spans_(options.trace) {}

  RunResult Run();

 private:
  void MakeInputs();
  std::unique_ptr<World> Setup(double* seconds);
  void AttachOracles(World* world);
  std::string BuildPoll(Poller& poller, bool cofill);
  // Sends one pre-built request through parse -> Route -> serialize, timed;
  // returns the parsed response.
  rcb::HttpResponse Send(const std::string& wire, uint64_t id, bool* ok);
  void CheckResponse(const rcb::HttpResponse& response, Poller& poller,
                     int64_t t_us, bool warmup);
  void Edit(Session& session, uint64_t id);
  void Measure(World* world);
  void Report(World* world, double setup_s);

  const ReplaySpec& spec_;
  const RunOptions& options_;
  SeededRng rng_;
  SpanRecorder spans_;
  RunResult result_;
  DriverClock clock_;
  std::string key_;
  std::vector<PageInput> pages_;
  World* world_ = nullptr;

  // --- Per-request timing of the last Send ---
  int64_t parse_ns_ = 0, route_ns_ = 0, serialize_ns_ = 0;

  // --- Measured-phase accumulators ---
  struct Block {
    int64_t host_ns = 0, update_ns = 0, apply_ns = 0;
    uint64_t updates = 0, applies = 0, contents = 0;
    std::vector<double> latency_us;
  };
  std::array<Block, kBlocks> blocks_;
  Block* block_ = &blocks_[0];
  bool measuring_ = false;
  uint64_t content_responses_ = 0, content_bytes_ = 0, requests_ = 0;
  int64_t host_ns_ = 0, update_ns_ = 0, loop_ns_ = 0, mutate_ns_ = 0;
  int64_t build_ns_ = 0, parse_total_ns_ = 0, serialize_total_ns_ = 0;
  uint64_t mutates_ = 0, events_run_ = 0;
  int64_t route_empty_ns_ = 0, route_content_ns_ = 0;
  uint64_t route_empty_ = 0, route_content_ = 0;
  int64_t route_registered_ns_ = 0, route_lite_ns_ = 0;
  uint64_t route_registered_ = 0, route_lite_ = 0;
  std::vector<double> latency_us_, lateness_us_, sync_ms_;
  double sim_seconds_ = 0;
  uint64_t doc_updates_ = 0;
  rcb::AgentMetrics agents_before_;
  std::vector<double> create_us_;
};

void ReplayRun::MakeInputs() {
  key_ = rcb::StrFormat("%016llx",
                        static_cast<unsigned long long>(rng_.Next()));
  for (size_t s = 0; s < spec_.sessions; ++s) {
    pages_.push_back(SmallPage(rng_, s));
  }
}

std::unique_ptr<World> ReplayRun::Setup(double* seconds) {
  auto world = std::make_unique<World>();
  const int64_t start = SteadyNs();
  world->loop = std::make_unique<rcb::EventLoop>();
  world->network = std::make_unique<rcb::Network>(world->loop.get());
  world->network->AddHost("host-pc", {});
  rcb::HostConfig config;
  config.limits.max_sessions = 0;  // the workload's session count is the cap
  config.agent_defaults.session_key = key_;
  config.agent_defaults.poll_interval =
      rcb::Duration::Millis(spec_.poll_interval_ms);
  world->host = std::make_unique<rcb::RcbHost>(world->loop.get(),
                                               world->network.get(), config);
  if (!world->host->Start().ok()) {
    result_.Fail("host did not start");
    return nullptr;
  }
  for (const PageInput& page : pages_) {
    CacheObjects(page, &world->host->shared_cache());
  }
  create_us_.clear();
  for (size_t s = 0; s < spec_.sessions; ++s) {
    Session session;
    session.id = "s" + std::to_string(s);
    int64_t t0 = SteadyNs();
    rcb::HttpResponse created = RouteRequest(
        world->host.get(), rcb::HttpMethod::kPost,
        "/host/sessions?id=" + session.id);
    create_us_.push_back(static_cast<double>(SteadyNs() - t0) / 1e3);
    session.hosted = world->host->FindSession(session.id);
    if (created.status_code / 100 != 2 || session.hosted == nullptr) {
      result_.Fail("session create failed: " + session.id);
      return nullptr;
    }
    rcb::Browser* browser = session.hosted->browser.get();
    browser->ReplaceDocument(rcb::ParseDocument(pages_[s].html), pages_[s].url);
    browser->MutateDocument(PrepareDocument);
    session.form_index = FormIndex(browser->document());
    world->sessions.push_back(std::move(session));
  }
  for (size_t s = 0; s < spec_.sessions; ++s) {
    for (size_t p = 0; p < spec_.pollers; ++p) {
      rcb::HttpResponse page = RouteRequest(
          world->host.get(), rcb::HttpMethod::kGet,
          "/s/" + world->sessions[s].id + "/");
      Poller poller;
      poller.session = s;
      poller.pid = PidFromPage(page.body);
      if (page.status_code != 200 || poller.pid.empty()) {
        result_.Fail("join failed in " + world->sessions[s].id);
        return nullptr;
      }
      world->pollers.push_back(std::move(poller));
    }
  }
  *seconds = static_cast<double>(SteadyNs() - start) / 1e9;
  return world;
}

void ReplayRun::AttachOracles(World* world) {
  for (Session& session : world->sessions) {
    session.oracle = std::make_unique<ContentOracle>(
        session.hosted->browser.get(), session.hosted->agent->AgentUrl());
  }
}

std::string ReplayRun::BuildPoll(Poller& poller, bool cofill) {
  const Session& session = world_->sessions[poller.session];
  rcb::PollRequest poll;
  poll.participant_id = poller.pid;
  poll.doc_time_ms = poller.acked_ms;
  poll.seq = ++poller.seq;
  if (cofill && session.form_index >= 0) {
    rcb::UserAction fill;
    fill.type = rcb::ActionType::kFormFill;
    fill.target = session.form_index;
    fill.fields = {{"q", rng_.Word() + " " + std::to_string(poll.seq)}};
    poll.actions.push_back(std::move(fill));
  }
  rcb::HttpRequest request;
  request.method = rcb::HttpMethod::kPost;
  request.body = rcb::EncodePollRequest(poll);
  // §3.4: the MAC covers "<METHOD> <agent path>\n<body>"; the front door
  // strips /s/<id> before the agent checks it.
  request.target = "/s/" + session.id + "/?hmac=" +
                   rcb::HmacSha256Hex(key_, "POST /\n" + request.body);
  request.headers.Set("Host", "host-pc:3000");
  request.headers.Set("Content-Type", "application/x-www-form-urlencoded");
  return request.Serialize();
}

rcb::HttpResponse ReplayRun::Send(const std::string& wire, uint64_t id,
                                  bool* ok) {
  rcb::HttpResponse response;
  int64_t t0 = SteadyNs();
  rcb::StatusOr<rcb::HttpRequest> request = rcb::InternalError("unparsed");
  {
    ScopedSpan span(&spans_, "ParseHttpRequest", id);
    request = rcb::ParseHttpRequest(wire);
  }
  int64_t t1 = SteadyNs();
  std::string bytes;
  if (request.ok()) {
    {
      ScopedSpan span(&spans_, "RcbHost::Route", id);
      response = world_->host->Route(*request);
    }
    int64_t t2 = SteadyNs();
    {
      ScopedSpan span(&spans_, "HttpResponse::Serialize", id);
      bytes = response.Serialize();
    }
    int64_t t3 = SteadyNs();
    parse_ns_ = t1 - t0;
    route_ns_ = t2 - t1;
    serialize_ns_ = t3 - t2;
  }
  *ok = request.ok() && !bytes.empty();
  return response;
}

void ReplayRun::Edit(Session& session, uint64_t id) {
  const uint64_t n = ++session.edits;
  std::string text = rng_.Word() + " " + std::to_string(n);
  int64_t t0 = SteadyNs();
  {
    ScopedSpan span(&spans_, "Browser::MutateDocument", id);
    // Host edits are text edits; form co-fills arrive from pollers.
    session.hosted->browser->MutateDocument(
        [&text](rcb::Document* document) { TextEdit(document, text); });
  }
  int64_t spent = SteadyNs() - t0;
  if (measuring_) {
    mutate_ns_ += spent;
    update_ns_ += spent;
    host_ns_ += spent;
    block_->update_ns += spent;
    block_->host_ns += spent;
    ++mutates_;
  }
}

void ReplayRun::CheckResponse(const rcb::HttpResponse& response,
                              Poller& poller, int64_t t_us, bool warmup) {
  Session& session = world_->sessions[poller.session];
  if (response.status_code != 200) {
    result_.Fail(rcb::StrFormat("poll by %s in %s answered %d",
                                poller.pid.c_str(), session.id.c_str(),
                                response.status_code));
    return;
  }
  Verdict verdict = session.oracle->Check(response.body, poller.acked_ms);
  if (!verdict.error.empty()) {
    result_.Fail(session.id + ": " + verdict.error);
    return;
  }
  for (const rcb::UserAction& action : verdict.actions) {
    if (action.origin == poller.pid ||
        (action.type != rcb::ActionType::kFormFill &&
         action.type != rcb::ActionType::kPresence)) {
      result_.Fail(session.id + ": unexpected broadcast action");
      return;
    }
  }
  if (!verdict.content) {
    return;
  }
  if (!warmup) {
    ++content_responses_;
    content_bytes_ += response.body.size();
    ++block_->contents;
    sync_ms_.push_back(static_cast<double>(t_us - verdict.doc_time_ms * 1000) /
                       1e3);
    if (verdict.applied) {
      block_->apply_ns += verdict.apply_ns;
      ++block_->applies;
    }
  }
  poller.acked_ms = verdict.doc_time_ms;
}

void ReplayRun::Measure(World* world) {
  const double polls_per_sim_s =
      static_cast<double>(spec_.sessions * spec_.pollers) * 1000.0 /
      static_cast<double>(spec_.poll_interval_ms);
  // Session seconds replayed per wall second.
  const double scale = spec_.offered_polls_per_s / polls_per_sim_s;
  const int64_t t0_us = world->loop->now().micros() + 1'000'000;
  const int64_t span_us =
      static_cast<int64_t>(options_.seconds * scale * 1e6);
  const int64_t end_us = t0_us + span_us;
  sim_seconds_ = static_cast<double>(span_us) / 1e6;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  const int64_t poll_us = spec_.poll_interval_ms * 1000;
  const int64_t edit_us = spec_.edit_interval_ms * 1000;
  for (size_t p = 0; p < world->pollers.size(); ++p) {
    queue.push({t0_us + static_cast<int64_t>(rng_.Below(poll_us)), true,
                static_cast<uint32_t>(p)});
  }
  for (size_t s = 0; s < world->sessions.size(); ++s) {
    queue.push({t0_us + static_cast<int64_t>(rng_.Below(edit_us)), false,
                static_cast<uint32_t>(s)});
  }
  // Intervals are jittered by +-20% around their mean, so each poller's
  // phase against its session's edits drifts over the run instead of fixing
  // one sync delay per poller for the whole run.
  auto pop = [&](Event* event) {
    if (queue.empty() || queue.top().t_us >= end_us) {
      return false;
    }
    *event = queue.top();
    queue.pop();
    Event next = *event;
    const double mean = static_cast<double>(event->poll ? poll_us : edit_us);
    next.t_us += static_cast<int64_t>(mean * (0.8 + 0.4 * rng_.Unit()));
    queue.push(next);
    return true;
  };
  auto build = [&](const Event& event) {
    if (!event.poll) {
      return std::string();
    }
    int64_t b0 = SteadyNs();
    const bool cofill = rng_.Below(spec_.cofill_one_in) == 0;
    std::string wire = BuildPoll(world->pollers[event.index], cofill);
    build_ns_ += SteadyNs() - b0;
    return wire;
  };

  for (const Session& session : world->sessions) {
    const rcb::AgentMetrics& m = session.hosted->agent->metrics();
    agents_before_.doc_updates += m.doc_updates;
    agents_before_.snapshot_reuses += m.snapshot_reuses;
    agents_before_.polls_with_content += m.polls_with_content;
  }

  // Sample vectors are sized up front: a reallocation mid-run would stall
  // the schedule.
  const size_t expected = static_cast<size_t>(
      options_.seconds * spec_.offered_polls_per_s * 1.6 + 1024);
  latency_us_.reserve(expected);
  lateness_us_.reserve(expected);
  sync_ms_.reserve(expected);
  for (Block& block : blocks_) {
    block.latency_us.reserve(expected / kBlocks * 3 / 2);
  }
  auto doc_updates = [world] {
    uint64_t total = 0;
    for (const Session& session : world->sessions) {
      total += session.hosted->agent->metrics().doc_updates;
    }
    return total;
  };
  size_t block_index = 0;
  uint64_t updates_mark = agents_before_.doc_updates;
  block_ = &blocks_[0];
  measuring_ = true;
  const int64_t w0 = clock_.Now() + 2'000'000;
  const int64_t deadline =
      w0 + static_cast<int64_t>(options_.seconds * kOverrunFactor * 1e9);
  uint64_t id = 0;
  Event event;
  bool have = pop(&event);
  std::string wire = build(event);
  while (have) {
    const int64_t due =
        w0 + static_cast<int64_t>(static_cast<double>(event.t_us - t0_us) *
                                  1000.0 / scale);
    while (clock_.Now() < due) {
    }
    int64_t started = clock_.Now();
    if (started > deadline) {
      break;
    }
    lateness_us_.push_back(static_cast<double>(started - due) / 1e3);
    const size_t index = std::min<size_t>(
        kBlocks - 1,
        static_cast<size_t>((event.t_us - t0_us) * kBlocks / span_us));
    if (index != block_index) {
      const uint64_t now_updates = doc_updates();
      blocks_[block_index].updates = now_updates - updates_mark;
      updates_mark = now_updates;
      block_index = index;
      block_ = &blocks_[index];
    }
    ++id;
    rcb::HttpResponse response;
    bool sent = false;
    {
      ScopedSpan root(&spans_, event.poll ? "request" : "update", id);
      int64_t l0 = SteadyNs();
      {
        ScopedSpan span(&spans_, "EventLoop::RunUntil", id);
        events_run_ += world->loop->RunUntil(rcb::SimTime::FromMicros(event.t_us));
      }
      int64_t loop_spent = SteadyNs() - l0;
      loop_ns_ += loop_spent;
      host_ns_ += loop_spent;
      block_->host_ns += loop_spent;
      if (event.poll) {
        ++requests_;
        response = Send(wire, id, &sent);
      } else {
        Edit(world->sessions[event.index], id);
      }
    }
    if (event.poll) {
      const int64_t done = clock_.Now();
      Poller& poller = world->pollers[event.index];
      const bool lite = world->sessions[poller.session].hosted->lite;
      clock_.Pause();
      if (!sent) {
        result_.Fail("request did not parse or serialize");
      } else {
        const int64_t request_ns = parse_ns_ + route_ns_ + serialize_ns_;
        latency_us_.push_back(static_cast<double>(done - due) / 1e3);
        block_->latency_us.push_back(latency_us_.back());
        host_ns_ += request_ns;
        block_->host_ns += request_ns;
        parse_total_ns_ += parse_ns_;
        serialize_total_ns_ += serialize_ns_;
        const uint64_t content_before = content_responses_;
        CheckResponse(response, poller, event.t_us, false);
        if (content_responses_ > content_before) {
          update_ns_ += request_ns;
          block_->update_ns += request_ns;
          route_content_ns_ += route_ns_;
          ++route_content_;
        } else {
          route_empty_ns_ += route_ns_;
          ++route_empty_;
          (lite ? route_lite_ns_ : route_registered_ns_) += route_ns_;
          ++(lite ? route_lite_ : route_registered_);
        }
      }
      clock_.Resume();
    }
    have = pop(&event);
    wire = have ? build(event) : std::string();
  }
  // Whatever the overrun cut off was attempted and lost.
  while (have) {
    if (event.poll) {
      ++requests_;
      result_.Fail("request not sent: the driver overran its schedule");
    }
    have = pop(&event);
  }
  measuring_ = false;
  const uint64_t after = doc_updates();
  blocks_[block_index].updates = after - updates_mark;
  doc_updates_ = after - agents_before_.doc_updates;
}

RunResult ReplayRun::Run() {
  MakeInputs();
  std::vector<double> setups;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();  // tear the previous host down outside the timed region
    double seconds = 0;
    world = Setup(&seconds);
    if (world == nullptr) {
      result_.correct = false;
      return std::move(result_);
    }
    setups.push_back(seconds);
  }
  ReleaseFreeHeap();
  world_ = world.get();
  AttachOracles(world_);

  // Warm-up: every poller's first poll fetches the full page.
  for (Poller& poller : world_->pollers) {
    bool sent = false;
    rcb::HttpResponse response = Send(BuildPoll(poller, false), 0, &sent);
    if (!sent) {
      result_.Fail("warm-up poll failed");
      continue;
    }
    CheckResponse(response, poller, world_->loop->now().micros(), true);
  }
  spans_ = SpanRecorder(options_.trace);  // keep only measured-phase spans
  Measure(world_);
  Report(world_, Median(setups));
  WriteSpans(spans_, options_);
  return std::move(result_);
}

void ReplayRun::Report(World* world, double setup_s) {
  const MemoryReading memory;
  const double content =
      static_cast<double>(std::max<uint64_t>(content_responses_, 1));
  const double session_seconds =
      static_cast<double>(spec_.sessions) * sim_seconds_;
  auto mean_us = [](int64_t ns, uint64_t n) {
    return n == 0 ? 0.0
                  : static_cast<double>(ns) / 1e3 / static_cast<double>(n);
  };

  // Rates and latency percentiles: median over the run's blocks.
  std::vector<double> per_update, per_core, p50, p99, apply, deliveries;
  const double block_session_seconds = session_seconds / kBlocks;
  for (const Block& block : blocks_) {
    if (block.updates > 0) {
      per_update.push_back(static_cast<double>(block.update_ns) / 1e3 /
                           static_cast<double>(block.updates));
    }
    per_core.push_back(1e6 / (static_cast<double>(block.host_ns) / 1e3 /
                              block_session_seconds));
    p50.push_back(Percentile(block.latency_us, 50));
    p99.push_back(Percentile(block.latency_us, 99));
    if (block.applies > 0) {
      apply.push_back(static_cast<double>(block.apply_ns) / 1e3 /
                      static_cast<double>(block.applies));
    }
    deliveries.push_back(static_cast<double>(block.contents) /
                         (static_cast<double>(block.host_ns) / 1e9));
  }
  std::map<std::string, double> e2e;
  e2e["host_us_per_update"] = Median(per_update);
  e2e["host_sessions_per_core"] = Median(per_core);
  e2e["request_p50_us"] = Median(p50);
  e2e["request_p99_us"] = Median(p99);
  e2e["sync_p50_ms"] = Percentile(sync_ms_, 50);
  e2e["sync_p99_ms"] = Percentile(sync_ms_, 99);
  e2e["bytes_per_update"] = static_cast<double>(content_bytes_) / content;
  e2e["apply_us_per_update"] = Median(apply);
  e2e["deliveries_per_s"] = Median(deliveries);
  e2e["setup_s"] = setup_s;

  // Sim-provenance figures: identical for one seed on any machine.
  result_.sim["sync_p50_ms"] = e2e["sync_p50_ms"];
  result_.sim["sync_p99_ms"] = e2e["sync_p99_ms"];
  result_.sim["bytes_per_update"] = e2e["bytes_per_update"];
  result_.sim["content_responses"] = static_cast<double>(content_responses_);
  result_.sim["doc_updates"] = static_cast<double>(doc_updates_);

  result_.attempted = requests_ + mutates_;
  const double polls_per_sim_s =
      static_cast<double>(spec_.sessions * spec_.pollers) * 1000.0 /
      static_cast<double>(spec_.poll_interval_ms);
  result_.facts["offered_polls_per_s"] = JsonNumber(spec_.offered_polls_per_s);
  result_.facts["session_seconds_per_wall_second"] =
      JsonNumber(spec_.offered_polls_per_s / polls_per_sim_s);
  result_.facts["simulated_seconds"] = JsonNumber(sim_seconds_);
  result_.facts["request_samples"] = std::to_string(latency_us_.size());
  result_.facts["sync_samples"] = std::to_string(sync_ms_.size());
  result_.facts["doc_updates"] = std::to_string(doc_updates_);
  result_.facts["generator_lateness_p50_us"] =
      JsonNumber(Percentile(lateness_us_, 50));
  result_.facts["generator_lateness_p99_us"] =
      JsonNumber(Percentile(lateness_us_, 99));
  result_.facts["generator_lateness_max_us"] =
      JsonNumber(Percentile(lateness_us_, 100));

  if (!options_.trace) {
    // Free the benchmark's own heap (oracles, page inputs, samples) so the
    // reading can leave it out.
    for (Session& session : world->sessions) {
      session.oracle.reset();
    }
    pages_ = {};
    latency_us_ = {};
    lateness_us_ = {};
    sync_ms_ = {};
    blocks_ = {};
    e2e["rss_mb"] = memory.ProgramMb(&result_.facts);
    result_.end_to_end = std::move(e2e);
    return;
  }

  // Traced run: per-layer figures. The program's own histograms and
  // counters are read through public getters; only registered (non-lite)
  // sessions have histograms.
  std::map<std::string, double>& layer = result_.per_layer;
  layer["trace.host_us_per_update"] = e2e["host_us_per_update"];
  layer["trace.request_p50_us"] = e2e["request_p50_us"];
  const SpanRecorder::Totals requests = spans_.TotalsFor("request");
  const SpanRecorder::Totals edits = spans_.TotalsFor("update");
  layer["trace.attributed_share"] =
      static_cast<double>(requests.child_ns + edits.child_ns) /
      static_cast<double>(std::max<int64_t>(requests.total_ns + edits.total_ns, 1));
  result_.facts["trace_spans"] = std::to_string(spans_.recorded());

  const rcb::obs::MetricsRegistry& registry = world->host->metrics_registry();
  auto hist_mean = [&](const char* name, const char* extra) {
    int64_t sum = 0;
    uint64_t count = 0;
    for (const Session& session : world->sessions) {
      if (session.hosted->lite) continue;
      std::string labels =
          rcb::StrFormat("session=\"%s\"", session.id.c_str());
      if (extra != nullptr) labels += std::string(",") + extra;
      if (const auto* h = registry.FindHistogram(name, labels)) {
        sum += h->sum();
        count += h->count();
      }
    }
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  };
  auto counter_sum = [&](const char* name) {
    uint64_t total = 0;
    for (const Session& session : world->sessions) {
      if (session.hosted->lite) continue;
      if (const auto* c = registry.FindCounter(
              name, rcb::StrFormat("session=\"%s\"", session.id.c_str()))) {
        total += c->value();
      }
    }
    return static_cast<double>(total);
  };
  rcb::AgentMetrics after;
  for (const Session& session : world->sessions) {
    const rcb::AgentMetrics& m = session.hosted->agent->metrics();
    after.snapshot_reuses += m.snapshot_reuses;
    after.polls_with_content += m.polls_with_content;
  }

  layer["host.route_poll_empty_us"] = mean_us(route_empty_ns_, route_empty_);
  layer["host.route_poll_content_us"] =
      mean_us(route_content_ns_, route_content_);
  layer["host.create_session_us"] = Mean(create_us_);
  layer["obs.route_registered_us"] =
      mean_us(route_registered_ns_, route_registered_);
  layer["obs.route_lite_us"] = mean_us(route_lite_ns_, route_lite_);
  layer["obs.registry_families"] =
      static_cast<double>(registry.family_count());
  layer["http.parse_us"] = mean_us(parse_total_ns_, requests_);
  layer["http.serialize_us"] = mean_us(serialize_total_ns_, requests_);
  layer["crypto.hmac_verify_us"] =
      hist_mean("rcb_agent_hmac_verify_us", nullptr);
  layer["browser.mutate_us"] = mean_us(mutate_ns_, mutates_);
  static constexpr std::pair<const char*, const char*> kStages[] = {
      {"core.gen_clone_us", "stage=\"clone\""},
      {"core.gen_absolutize_us", "stage=\"absolutize\""},
      {"core.gen_cache_rewrite_us", "stage=\"cache_rewrite\""},
      {"core.gen_event_rewrite_us", "stage=\"event_rewrite\""},
      {"core.gen_extract_us", "stage=\"extract\""},
      {"core.gen_serialize_us", "stage=\"serialize\""}};
  for (const auto& [metric, label] : kStages) {
    layer[metric] = hist_mean("rcb_agent_gen_stage_us", label);
  }
  layer["core.generate_us"] = hist_mean("rcb_agent_generation_us", nullptr);
  const double hits = counter_sum("rcb_serialize_cache_hits");
  const double misses = counter_sum("rcb_serialize_cache_misses");
  layer["core.serialize_cache_hit_ratio"] =
      hits + misses == 0 ? 0.0 : hits / (hits + misses);
  const double served =
      static_cast<double>(after.polls_with_content -
                          agents_before_.polls_with_content);
  layer["core.reuse_ratio"] =
      served == 0 ? 0.0
                  : static_cast<double>(after.snapshot_reuses -
                                        agents_before_.snapshot_reuses) /
                        served;
  layer["net.loop_run_us"] = static_cast<double>(loop_ns_) / 1e3 / sim_seconds_;
  layer["net.events_run"] = static_cast<double>(events_run_);
  layer["driver.build_us"] = mean_us(build_ns_, requests_);
  layer["driver.lateness_p99_us"] = Percentile(lateness_us_, 99);

  // Closing is timed after the histograms are read: CloseSession drops the
  // session's labelled families.
  int64_t close_ns = 0;
  std::vector<SnapshotPair> captured;
  for (Session& session : world->sessions) {
    const auto& refs = session.oracle->references();
    if (captured.size() < 8 && refs.size() >= 2) {
      captured.emplace_back(refs[refs.size() - 2].snapshot,
                            refs[refs.size() - 1].snapshot);
    }
    session.oracle.reset();
    int64_t t0 = SteadyNs();
    rcb::Status closed = world->host->CloseSession(session.id);
    close_ns += SteadyNs() - t0;
    if (!closed.ok()) {
      result_.Fail("close failed: " + session.id);
    }
  }
  layer["host.close_session_us"] =
      mean_us(close_ns, static_cast<uint64_t>(world->sessions.size()));
  AttributeContent(captured, /*delta=*/false, &spans_, &layer);
}

}  // namespace

RunResult RunReplay(const RunOptions& options) {
  ReplayRun run(kFanout, options);
  return run.Run();
}

}  // namespace perfbench
