// Whole-system workload (cobrowse).
//
// Real AjaxSnippet participants on the simulated WAN co-browse Table 1 pages
// hosted by one persistent RcbHost, all on one event loop. Sessions are
// created and closed during the run, participants join and leave, the host
// edits every 2 s, delta and the framed transport are on, and the session
// store lives on the filesystem of the benchmark's working directory.
//
// The driver runs the loop one event at a time (RunUntilCondition checks
// after every event) and attributes each event's time to the host or to the
// participants by which side's counters it advanced; that split is what the
// host_* and request_* figures are built from here.
//
// Those figures count thread CPU time, not wall time. Most of this run's
// wall time is the store waiting on the disk (ext4 writeback when a
// checkpoint is renamed into place), and on a shared disk that wait drifts
// by 2x within minutes, which no bound could absorb. The wait itself is
// reported per layer: persist.checkpoint_us, host.close_session_us and
// net.loop_run_us are wall time.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include "perfbench/src/attribution.h"
#include "perfbench/src/bench.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/pages.h"
#include "src/core/ajax_snippet.h"
#include "src/delta/tree_diff.h"
#include "src/host/rcb_host.h"
#include "src/html/parser.h"
#include "src/net/profiles.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

// Simulated time of one pass: about 130 sessions with their joins, churn and
// closes, about 6 s of CPU. Sim-provenance figures come from one pass, so it
// is long enough that their spread from seed to seed is small (a quarter of
// this length spread 0.16 on sync_p99_ms over five seeds). A run replays the
// same seeded pass until --seconds of wall time is spent (see RunCobrowse),
// so its CPU figures are medians over the blocks of the whole run rather
// than of one short burst.
constexpr int64_t kPassSimMs = 8'400'000;
// Concurrent session slots; each slot hosts sessions back to back.
constexpr int kSlots = 2;
// The WAN host uplink (384 kbit/s) carries every session's snapshots, and
// framed clients always receive full snapshots, so the run hosts the small
// Table 1 homepages; larger ones would saturate the uplink and turn sync
// latency into a backlog.
constexpr const char* kSites[] = {"google.com", "apple.com"};
constexpr int64_t kEditMs = 2000;
constexpr int64_t kQuietMs = 20000;  // no edits before a session's check
// Setups per pass; setup_s is the median over every pass's setups. A setup
// is ~1 ms of CPU, so a few extra cost little and keep the median off the
// process's cold start. Many more in one pass do not pay: 121 made its wall
// time 5-10x longer, the disk stalling on their store files.
constexpr int kSetups = 9;

struct Participant {
  std::string machine;
  std::unique_ptr<rcb::Browser> browser;
  std::unique_ptr<rcb::AjaxSnippet> snippet;
  bool joined = false;
  bool left = false;
  bool seen_first = false;  // the join snapshot is not a sync sample
};

struct LiveSession {
  std::string id;
  rcb::HostSession* hosted = nullptr;
  std::unique_ptr<ContentOracle> oracle;
  std::vector<Participant*> participants;
  int64_t end_ms = 0;
  int64_t quiet_ms = 0;
  uint64_t edits = 0;
  bool open = true;
  rcb::Snapshot capture_base;  // traced runs: base of an attribution pair
};

// Sums the agent metrics the driver reports, across sessions.
struct AgentTotals {
  uint64_t doc_updates = 0, polls_with_content = 0, snapshot_reuses = 0;
  uint64_t content_bytes = 0, fallback_no_base = 0, fallback_oversize = 0;
  uint64_t frames_sent = 0, frame_bytes = 0;
  void Add(const rcb::AgentMetrics& m) {
    doc_updates += m.doc_updates;
    polls_with_content += m.polls_with_content;
    snapshot_reuses += m.snapshot_reuses;
    content_bytes += m.content_bytes_sent;
    fallback_no_base += m.patch_fallback_no_base;
    fallback_oversize += m.patch_fallback_oversize;
    frames_sent += m.transport_frames_sent;
    frame_bytes += m.transport_frame_bytes_sent;
  }
};

// Registry histogram sums of one session, folded in before it closes.
struct HistTotals {
  int64_t sum[8] = {};
  uint64_t count[8] = {};
};
constexpr const char* kHistNames[8] = {
    "rcb_agent_gen_stage_us", "rcb_agent_gen_stage_us",
    "rcb_agent_gen_stage_us", "rcb_agent_gen_stage_us",
    "rcb_agent_gen_stage_us", "rcb_agent_gen_stage_us",
    "rcb_agent_generation_us", "rcb_agent_hmac_verify_us"};
constexpr const char* kHistLabels[8] = {
    "stage=\"clone\"",   "stage=\"absolutize\"", "stage=\"cache_rewrite\"",
    "stage=\"event_rewrite\"", "stage=\"extract\"", "stage=\"serialize\"",
    nullptr, nullptr};
constexpr const char* kHistMetrics[8] = {
    "core.gen_clone_us",   "core.gen_absolutize_us", "core.gen_cache_rewrite_us",
    "core.gen_event_rewrite_us", "core.gen_extract_us", "core.gen_serialize_us",
    "core.generate_us",    "crypto.hmac_verify_us"};

// The CPU-time figures of a pass, one value per block of simulated time
// (setup times: one per setup). The passes of a run pool them and the run
// reports their medians.
struct CpuSamples {
  std::vector<double> per_update, per_core, p50, p99, apply, deliveries;
  std::vector<double> setups;
  void Append(const CpuSamples& other) {
    auto add = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    add(&per_update, other.per_update);
    add(&per_core, other.per_core);
    add(&p50, other.p50);
    add(&p99, other.p99);
    add(&apply, other.apply);
    add(&deliveries, other.deliveries);
    add(&setups, other.setups);
  }
  void Fill(std::map<std::string, double>* e2e) const {
    (*e2e)["host_us_per_update"] = Median(per_update);
    (*e2e)["host_sessions_per_core"] = Median(per_core);
    (*e2e)["request_p50_us"] = Median(p50);
    (*e2e)["request_p99_us"] = Median(p99);
    (*e2e)["apply_us_per_update"] = Median(apply);
    (*e2e)["deliveries_per_s"] = Median(deliveries);
    (*e2e)["setup_s"] = Median(setups);
  }
};

class CobrowseRun {
 public:
  // Pass 0 reports every figure; later passes (same seed, same inputs) only
  // add CPU samples and checks, and skip the traced run's attribution.
  CobrowseRun(const RunOptions& options, int pass)
      : options_(options),
        pass_(pass),
        rng_(options.seed),
        spans_(options.trace) {}
  RunResult Run();
  const CpuSamples& samples() const { return samples_; }

 private:
  struct World {
    std::unique_ptr<rcb::EventLoop> loop;
    std::unique_ptr<rcb::Network> network;
    std::unique_ptr<rcb::RcbHost> host;
    std::vector<std::unique_ptr<LiveSession>> sessions;
    // Every participant ever created; kept to the end of the run because
    // in-flight network callbacks may still name their browsers.
    std::vector<std::unique_ptr<Participant>> participants;
  };

  bool BuildWorld(const std::string& persist_dir);
  LiveSession* CreateSession(int64_t end_ms, int slot);
  void AddParticipant(LiveSession* session, bool frames);
  void ScheduleSlot(int slot, int64_t start_ms, bool first);
  void ScheduleSession(LiveSession* session, int64_t start_ms);
  void Edit(LiveSession* session);
  void CheckAndClose(LiveSession* session);
  void OnApplied(Participant* participant, int64_t doc_time_ms);
  void FoldSession(LiveSession* session);
  // Host- and participant-side activity counters, summed over live objects.
  uint64_t HostSignature() const;
  uint64_t ParticipantSignature() const;
  void RunLoop();
  void Report();
  // Cumulative figures at a block boundary; blocks are their differences.
  struct Mark {
    int64_t host_ns = 0, update_ns = 0, loop_ns = 0;
    uint64_t applications = 0, updates = 0, content_updates = 0;
    double apply_us = 0;
    size_t requests = 0;
    double session_seconds = 0;
  };
  Mark TakeMark() const;

  const RunOptions& options_;
  const int pass_;
  SeededRng rng_;
  SpanRecorder spans_;
  RunResult result_;
  std::string key_;
  std::vector<PageInput> pages_;
  rcb::NetworkProfile wan_ = rcb::WanProfile();
  std::unique_ptr<World> world_;
  int64_t end_ms_ = 0;
  uint64_t next_session_ = 0;
  uint64_t next_machine_ = 0;
  size_t joins_expected_ = 0, joins_done_ = 0;
  bool driver_event_ = false;

  // --- Accounting ---
  bool measuring_ = false;
  int64_t host_ns_ = 0, update_ns_ = 0, participant_ns_ = 0, other_ns_ = 0;
  int64_t mutate_ns_ = 0;
  int64_t loop_wall_ns_ = 0;  // wall time of the loop's own events
  uint64_t mutates_ = 0, events_ = 0;
  std::vector<double> request_us_, poll_empty_us_, poll_content_us_;
  std::vector<double> create_us_, close_us_;
  std::vector<double> sync_poll_ms_, sync_frames_ms_;
  uint64_t applications_ = 0, checks_ = 0;
  double session_seconds_ = 0;
  int open_sessions_ = 0;
  std::vector<Mark> marks_;
  CpuSamples samples_;
  AgentTotals agents_;
  HistTotals hists_;
  double registry_families_ = 0;
  uint64_t cache_hits_ = 0, cache_misses_ = 0;
  std::vector<SnapshotPair> captured_;
  rcb::AgentStateExport captured_state_;
};

bool CobrowseRun::BuildWorld(const std::string& persist_dir) {
  world_ = std::make_unique<World>();
  world_->loop = std::make_unique<rcb::EventLoop>();
  world_->network = std::make_unique<rcb::Network>(world_->loop.get());
  // The WAN environment of the repository's corpus benches.
  world_->network->set_slow_start_enabled(true);
  world_->network->AddHost("host-pc", wan_.host_interface);
  rcb::HostConfig config;
  config.agent_defaults.session_key = key_;
  config.agent_defaults.poll_interval = rcb::Duration::Seconds(1.0);
  config.agent_defaults.enable_delta = true;
  config.agent_defaults.transport.enable_stream = true;
  config.persist.dir = persist_dir;
  std::filesystem::create_directories(persist_dir);
  world_->host = std::make_unique<rcb::RcbHost>(
      world_->loop.get(), world_->network.get(), config);
  if (!world_->host->Start().ok()) {
    result_.Fail("host did not start");
    return false;
  }
  for (const PageInput& page : pages_) {
    CacheObjects(page, &world_->host->shared_cache());
  }
  return true;
}

LiveSession* CobrowseRun::CreateSession(int64_t end_ms, int slot) {
  auto session = std::make_unique<LiveSession>();
  session->id = "c" + std::to_string(next_session_++);
  // One page per slot keeps the page mix, and so the bytes on the shared
  // uplink, the same from seed to seed.
  const PageInput& page = pages_[static_cast<size_t>(slot) % pages_.size()];
  rcb::HttpRequest create;
  create.method = rcb::HttpMethod::kPost;
  create.target = "/host/sessions?id=" + session->id;
  int64_t t0 = ThreadCpuNs();
  rcb::HttpResponse created;
  {
    ScopedSpan span(&spans_, "RcbHost::Route(create)", next_session_);
    created = world_->host->Route(create);
  }
  int64_t t1 = ThreadCpuNs();
  session->hosted = world_->host->FindSession(session->id);
  if (created.status_code / 100 != 2 || session->hosted == nullptr) {
    result_.Fail("session create failed: " + session->id);
    return nullptr;
  }
  {
    ScopedSpan span(&spans_, "Browser::ReplaceDocument", next_session_);
    session->hosted->browser->ReplaceDocument(rcb::ParseDocument(page.html),
                                              page.url);
    session->hosted->browser->MutateDocument(PrepareDocument);
  }
  int64_t t2 = ThreadCpuNs();
  if (measuring_) {
    create_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
    host_ns_ += t2 - t0;
  }
  session->oracle = std::make_unique<ContentOracle>(
      session->hosted->browser.get(), session->hosted->agent->AgentUrl());
  session->end_ms = end_ms;
  session->quiet_ms = end_ms - kQuietMs;
  ++open_sessions_;
  world_->sessions.push_back(std::move(session));
  return world_->sessions.back().get();
}

void CobrowseRun::AddParticipant(LiveSession* session, bool frames) {
  auto participant = std::make_unique<Participant>();
  participant->machine = "pc-" + std::to_string(next_machine_++);
  rcb::Network* network = world_->network.get();
  network->AddHost(participant->machine, wan_.participant_interface);
  network->SetLatency("host-pc", participant->machine,
                      wan_.host_participant_latency);
  participant->browser = std::make_unique<rcb::Browser>(
      world_->loop.get(), network, participant->machine);
  rcb::SnippetConfig config;
  config.session_key = key_;
  config.fetch_objects = false;
  config.enable_delta = true;
  config.poll_timeout = rcb::Duration::Seconds(10.0);  // signed seq on polls
  config.stream_mode = frames ? 2 : 0;
  participant->snippet =
      std::make_unique<rcb::AjaxSnippet>(participant->browser.get(), config);
  Participant* p = participant.get();
  p->snippet->SetUpdateListener(
      [this, p](int64_t doc_time_ms) { OnApplied(p, doc_time_ms); });
  ++joins_expected_;
  p->snippet->Join(session->hosted->agent->AgentUrl(),
                   [this, p](rcb::Status status) {
                     if (status.ok()) {
                       p->joined = true;
                       ++joins_done_;
                     } else {
                       result_.Fail("join failed: " + status.ToString());
                     }
                   });
  session->participants.push_back(p);
  world_->participants.push_back(std::move(participant));
}

void CobrowseRun::OnApplied(Participant* participant, int64_t doc_time_ms) {
  if (!participant->seen_first) {
    participant->seen_first = true;
    if (measuring_) {
      ++applications_;
    }
    return;
  }
  if (!measuring_) {
    return;
  }
  ++applications_;
  double ms = static_cast<double>(world_->loop->now().micros() -
                                  doc_time_ms * 1000) / 1e3;
  (participant->snippet->frames_open() ? sync_frames_ms_ : sync_poll_ms_)
      .push_back(ms);
}

void CobrowseRun::Edit(LiveSession* session) {
  if (!session->open || world_->loop->now().millis() >= session->quiet_ms) {
    return;
  }
  const uint64_t n = ++session->edits;
  std::string text = rng_.Word() + " " + std::to_string(n);
  int64_t t0 = ThreadCpuNs();
  {
    ScopedSpan span(&spans_, "Browser::MutateDocument", n);
    session->hosted->browser->MutateDocument(
        [&text, n](rcb::Document* document) {
          if (n % 2 == 0) {
            FillEdit(document, text);
          } else {
            TextEdit(document, text);
          }
        });
  }
  int64_t spent = ThreadCpuNs() - t0;
  mutate_ns_ += spent;
  update_ns_ += spent;
  host_ns_ += spent;
  ++mutates_;
  // Consecutive reference versions of the first sessions feed the traced
  // run's attribution of src/delta and the Fig. 4 codec.
  if (options_.trace && pass_ == 0 && captured_.size() < 8 &&
      (n == 2 || n == 3)) {
    rcb::Snapshot current =
        session->oracle->LiveSnapshot(static_cast<int64_t>(n));
    if (n == 3) {
      captured_.emplace_back(std::move(session->capture_base),
                             std::move(current));
    } else {
      session->capture_base = std::move(current);
    }
  }
  world_->loop->Schedule(rcb::Duration::Millis(kEditMs), [this, session] {
    driver_event_ = true;
    Edit(session);
  });
}

void CobrowseRun::FoldSession(LiveSession* session) {
  agents_.Add(session->hosted->agent->metrics());
  const rcb::obs::MetricsRegistry& registry = world_->host->metrics_registry();
  const std::string label = rcb::StrFormat("session=\"%s\"", session->id.c_str());
  if (const auto* hits = registry.FindCounter("rcb_serialize_cache_hits", label)) {
    cache_hits_ += hits->value();
  }
  if (const auto* misses =
          registry.FindCounter("rcb_serialize_cache_misses", label)) {
    cache_misses_ += misses->value();
  }
  for (int i = 0; i < 8; ++i) {
    std::string labels = rcb::StrFormat("session=\"%s\"", session->id.c_str());
    if (kHistLabels[i] != nullptr) {
      labels += std::string(",") + kHistLabels[i];
    }
    if (const auto* h = registry.FindHistogram(kHistNames[i], labels)) {
      hists_.sum[i] += h->sum();
      hists_.count[i] += h->count();
    }
  }
}

void CobrowseRun::CheckAndClose(LiveSession* session) {
  // Converged: every participant still in the session shows the host's
  // current content, digest for digest.
  const std::string expected = session->oracle->LiveDigest();
  for (Participant* p : session->participants) {
    if (p->left) {
      continue;
    }
    ++checks_;
    rcb::Document* document = p->browser->document();
    std::unique_ptr<rcb::Element> canonical =
        document == nullptr ? nullptr : rcb::delta::CanonicalizeDocument(*document);
    if (!p->joined || canonical == nullptr ||
        rcb::delta::TreeDigest(*canonical) != expected) {
      result_.Fail(rcb::StrFormat("%s: participant DOM digest differs from "
                                  "the host's at close",
                                  session->id.c_str()));
    }
    p->snippet->Leave();
    p->left = true;
  }
  if (options_.trace && pass_ == 0 && captured_state_.document_html.empty()) {
    captured_state_ = session->hosted->agent->ExportState();
  }
  world_->loop->Schedule(rcb::Duration::Seconds(5.0), [this, session] {
    driver_event_ = true;
    FoldSession(session);
    session->oracle.reset();
    session->open = false;
    --open_sessions_;
    int64_t t0 = SteadyNs();
    int64_t c0 = ThreadCpuNs();
    rcb::Status closed;
    {
      ScopedSpan span(&spans_, "RcbHost::CloseSession", 0);
      closed = world_->host->CloseSession(session->id);
    }
    close_us_.push_back(static_cast<double>(SteadyNs() - t0) / 1e3);
    host_ns_ += ThreadCpuNs() - c0;
    if (!closed.ok()) {
      result_.Fail("close failed: " + session->id);
    }
  });
}

void CobrowseRun::ScheduleSession(LiveSession* session, int64_t start_ms) {
  // Four snippets: two classic 1 s pollers and two framed-stream clients,
  // joining over the first seconds of the session. The sessions open at
  // setup are joined at once, so setup does the same work for every seed.
  for (int j = 0; j < 4; ++j) {
    const int64_t offset = static_cast<int64_t>(rng_.Below(3000));
    const int64_t at = start_ms == 0 ? 0 : start_ms + offset;
    world_->loop->ScheduleAt(rcb::SimTime::FromMicros(at * 1000),
                             [this, session, j] {
                               driver_event_ = true;
                               AddParticipant(session, /*frames=*/j >= 2);
                             });
  }
  const int64_t first_edit =
      start_ms + 5000 + static_cast<int64_t>(rng_.Below(kEditMs));
  world_->loop->ScheduleAt(rcb::SimTime::FromMicros(first_edit * 1000),
                           [this, session] {
                             driver_event_ = true;
                             Edit(session);
                           });
  // Mid-session churn: one classic poller leaves, a new one joins.
  const int64_t churn = start_ms + (session->end_ms - start_ms) / 2;
  world_->loop->ScheduleAt(rcb::SimTime::FromMicros(churn * 1000),
                           [this, session] {
                             driver_event_ = true;
                             Participant* leaver = session->participants[0];
                             leaver->snippet->Leave();
                             leaver->left = true;
                           });
  world_->loop->ScheduleAt(rcb::SimTime::FromMicros((churn + 3000) * 1000),
                           [this, session] {
                             driver_event_ = true;
                             AddParticipant(session, /*frames=*/false);
                           });
  world_->loop->ScheduleAt(rcb::SimTime::FromMicros(session->end_ms * 1000),
                           [this, session] {
                             driver_event_ = true;
                             CheckAndClose(session);
                           });
}

void CobrowseRun::ScheduleSlot(int slot, int64_t start_ms, bool first) {
  const int64_t lifetime = 90000 + static_cast<int64_t>(rng_.Below(60000));
  const int64_t end_ms = std::min(start_ms + lifetime, end_ms_ - 6000);
  if (end_ms - start_ms < 40000) {
    return;  // too little run left for a whole session
  }
  auto open = [this, slot, start_ms, end_ms] {
    LiveSession* session = CreateSession(end_ms, slot);
    if (session != nullptr) {
      ScheduleSession(session, start_ms);
    }
    const int64_t next = end_ms + 5000 + 2000 +
                         static_cast<int64_t>(rng_.Below(6000));
    ScheduleSlot(slot, next, false);
  };
  if (first) {
    open();
  } else {
    world_->loop->ScheduleAt(rcb::SimTime::FromMicros(start_ms * 1000),
                             [this, open] {
                               driver_event_ = true;
                               open();
                             });
  }
}

uint64_t CobrowseRun::HostSignature() const {
  uint64_t sum = 0;
  for (const auto& session : world_->sessions) {
    if (!session->open) continue;
    const rcb::AgentMetrics& m = session->hosted->agent->metrics();
    sum += m.polls_received + m.new_connections + m.generations +
           m.transport_frames_sent + m.transport_heartbeats_sent +
           m.polls_with_content + m.participants_reaped;
  }
  const rcb::persist::PersistCounters& p = world_->host->persist_counters();
  return sum + p.wal_records + p.checkpoints_written;
}

uint64_t CobrowseRun::ParticipantSignature() const {
  uint64_t sum = 0;
  for (const auto& participant : world_->participants) {
    const rcb::SnippetMetrics& m = participant->snippet->metrics();
    sum += m.polls_sent + m.content_updates + m.empty_responses +
           m.frames_received + m.heartbeats_received + m.broadcasts_received +
           m.transport_failures + m.poll_timeouts + m.reconnects;
  }
  return sum;
}

void CobrowseRun::RunLoop() {
  bool stop = false;
  world_->loop->ScheduleAt(rcb::SimTime::FromMicros(end_ms_ * 1000),
                           [&stop] { stop = true; });
  uint64_t host_before = HostSignature();
  uint64_t participant_before = ParticipantSignature();
  uint64_t polls_before = 0, content_before = 0;
  auto poll_counts = [this](uint64_t* polls, uint64_t* content) {
    *polls = *content = 0;
    for (const auto& session : world_->sessions) {
      if (!session->open) continue;
      const rcb::AgentMetrics& m = session->hosted->agent->metrics();
      *polls += m.polls_received;
      *content += m.polls_with_content + m.transport_frames_sent;
    }
  };
  poll_counts(&polls_before, &content_before);
  marks_.push_back(TakeMark());
  size_t block_index = 0;
  int64_t last_sim_us = world_->loop->now().micros();
  ScopedSpan run_span(&spans_, "EventLoop::RunUntilCondition", 0);
  int64_t last = ThreadCpuNs();
  int64_t last_wall = SteadyNs();
  world_->loop->RunUntilCondition([&] {
    const int64_t dt = ThreadCpuNs() - last;
    const int64_t wall_dt = SteadyNs() - last_wall;
    const int64_t now_us = world_->loop->now().micros();
    session_seconds_ += static_cast<double>(open_sessions_) *
                        static_cast<double>(now_us - last_sim_us) / 1e6;
    last_sim_us = now_us;
    if (driver_event_) {
      // Driver closures time their own host calls; their checks and
      // bookkeeping are not system time.
      driver_event_ = false;
      host_before = HostSignature();
      participant_before = ParticipantSignature();
      poll_counts(&polls_before, &content_before);
    } else {
      ++events_;
      loop_wall_ns_ += wall_dt;
      const uint64_t host_now = HostSignature();
      const uint64_t participant_now = ParticipantSignature();
      if (host_now != host_before) {
        host_ns_ += dt;
        uint64_t polls = 0, content = 0;
        poll_counts(&polls, &content);
        const bool served = content != content_before;
        if (served) {
          update_ns_ += dt;
        }
        if (polls != polls_before) {
          const double us = static_cast<double>(dt) / 1e3;
          request_us_.push_back(us);
          (served ? poll_content_us_ : poll_empty_us_).push_back(us);
        }
        polls_before = polls;
        content_before = content;
      } else if (participant_now != participant_before) {
        participant_ns_ += dt;
      } else {
        other_ns_ += dt;
      }
      host_before = host_now;
      participant_before = participant_now;
    }
    const size_t index = std::min<size_t>(
        kBlocks, static_cast<size_t>(now_us / 1000 * kBlocks / end_ms_));
    while (block_index < index) {
      marks_.push_back(TakeMark());
      ++block_index;
    }
    last = ThreadCpuNs();
    last_wall = SteadyNs();
    return stop;
  });
  while (marks_.size() < kBlocks + 1) {
    marks_.push_back(TakeMark());
  }
}

CobrowseRun::Mark CobrowseRun::TakeMark() const {
  Mark mark;
  mark.host_ns = host_ns_;
  mark.update_ns = update_ns_;
  mark.loop_ns = host_ns_ + participant_ns_ + other_ns_;
  mark.applications = applications_;
  mark.updates = agents_.doc_updates;
  for (const auto& session : world_->sessions) {
    if (session->open) {
      mark.updates += session->hosted->agent->metrics().doc_updates;
    }
  }
  for (const auto& participant : world_->participants) {
    const rcb::SnippetMetrics& m = participant->snippet->metrics();
    mark.content_updates += m.content_updates;
    mark.apply_us += static_cast<double>(m.total_apply_time.micros());
  }
  mark.requests = request_us_.size();
  mark.session_seconds = session_seconds_;
  return mark;
}

RunResult CobrowseRun::Run() {
  key_ = rcb::StrFormat("%016llx",
                        static_cast<unsigned long long>(rng_.Next()));
  for (const char* name : kSites) {
    pages_.push_back(Table1Page(*rcb::FindSite(name)));
  }
  end_ms_ = kPassSimMs;
  const std::string run_dir = options_.work_dir + "/cobrowse-" +
                              std::to_string(options_.seed) + "-" +
                              std::to_string(getpid());
  std::error_code ignored;
  std::filesystem::remove_all(run_dir, ignored);

  const uint64_t seed_state = rng_.Next();
  for (int i = 0; i < kSetups; ++i) {
    // Every setup replays the same seeded choices; only the last is kept.
    rng_ = SeededRng(seed_state);
    world_.reset();
    next_session_ = next_machine_ = 0;
    joins_expected_ = joins_done_ = 0;
    open_sessions_ = 0;
    const int64_t start = ThreadCpuNs();
    if (!BuildWorld(run_dir + "/persist-" + std::to_string(i))) {
      result_.correct = false;
      return std::move(result_);
    }
    for (int slot = 0; slot < kSlots; ++slot) {
      ScheduleSlot(slot, 0, /*first=*/true);
    }
    // Joins complete over the simulated WAN; setup ends when all have.
    world_->loop->RunUntilCondition(
        [this] { return joins_done_ == joins_expected_ && joins_expected_ > 0; });
    samples_.setups.push_back(static_cast<double>(ThreadCpuNs() - start) / 1e9);
    if (joins_done_ != joins_expected_) {
      result_.Fail("initial joins did not complete");
      result_.correct = false;
      return std::move(result_);
    }
  }
  ReleaseFreeHeap();
  registry_families_ =
      static_cast<double>(world_->host->metrics_registry().family_count());
  create_us_.clear();
  host_ns_ = update_ns_ = mutate_ns_ = 0;
  mutates_ = 0;
  driver_event_ = false;
  measuring_ = true;
  RunLoop();
  measuring_ = false;
  Report();
  if (options_.trace && pass_ == 0 &&
      !AttributePersist(captured_state_, run_dir + "/attribution", &spans_,
                        &result_.per_layer)) {
    result_.Fail("persist attribution writes failed");
  }
  if (pass_ == 0) {
    WriteSpans(spans_, options_);
  }
  world_.reset();
  std::filesystem::remove_all(run_dir, ignored);
  return std::move(result_);
}

void CobrowseRun::Report() {
  const MemoryReading memory;
  // Sessions still open at the end fold in now.
  for (const auto& session : world_->sessions) {
    if (session->open) {
      FoldSession(session.get());
    }
  }
  uint64_t content_updates = 0, patches = 0, classic_updates = 0;
  uint64_t classic_patches = 0, resyncs = 0, wasted_bytes = 0, downgrades = 0;
  uint64_t digest_failures = 0, frame_errors = 0;
  for (const auto& participant : world_->participants) {
    const rcb::SnippetMetrics& m = participant->snippet->metrics();
    content_updates += m.content_updates;
    patches += m.patches_applied;
    if (participant->snippet->metrics().frames_received == 0) {
      classic_updates += m.content_updates;
      classic_patches += m.patches_applied;
    }
    resyncs += m.resyncs;
    wasted_bytes += m.wasted_poll_bytes;
    downgrades += m.transport_downgrades;
    frame_errors += m.frame_errors;
    digest_failures += m.patch_digest_mismatches + m.patch_apply_errors;
  }
  if (digest_failures > 0) {
    result_.Fail(rcb::StrFormat("%llu patches failed their digest checks",
                                static_cast<unsigned long long>(digest_failures)));
  }
  std::vector<double> sync_all = sync_poll_ms_;
  sync_all.insert(sync_all.end(), sync_frames_ms_.begin(), sync_frames_ms_.end());

  // Rates and latency percentiles, one value per block.
  std::vector<double>& per_update = samples_.per_update;
  std::vector<double>& per_core = samples_.per_core;
  std::vector<double>& p50 = samples_.p50;
  std::vector<double>& p99 = samples_.p99;
  std::vector<double>& apply = samples_.apply;
  std::vector<double>& deliveries = samples_.deliveries;
  for (size_t b = 0; b + 1 < marks_.size(); ++b) {
    const Mark& m0 = marks_[b];
    const Mark& m1 = marks_[b + 1];
    if (m1.updates > m0.updates) {
      per_update.push_back(static_cast<double>(m1.update_ns - m0.update_ns) /
                           1e3 / static_cast<double>(m1.updates - m0.updates));
    }
    per_core.push_back(
        1e6 / (static_cast<double>(m1.host_ns - m0.host_ns) / 1e3 /
               (m1.session_seconds - m0.session_seconds)));
    std::vector<double> requests(request_us_.begin() + m0.requests,
                                 request_us_.begin() + m1.requests);
    p50.push_back(Percentile(requests, 50));
    p99.push_back(Percentile(requests, 99));
    if (m1.content_updates > m0.content_updates) {
      apply.push_back((m1.apply_us - m0.apply_us) /
                      static_cast<double>(m1.content_updates - m0.content_updates));
    }
    deliveries.push_back(static_cast<double>(m1.applications - m0.applications) /
                         (static_cast<double>(m1.loop_ns - m0.loop_ns) / 1e9));
  }
  std::map<std::string, double> e2e;
  samples_.Fill(&e2e);
  e2e["sync_p50_ms"] = Percentile(sync_all, 50);
  e2e["sync_p99_ms"] = Percentile(sync_all, 99);
  e2e["bytes_per_update"] =
      static_cast<double>(agents_.content_bytes) /
      static_cast<double>(std::max<uint64_t>(content_updates, 1));

  result_.sim["sync_p50_ms"] = e2e["sync_p50_ms"];
  result_.sim["sync_p99_ms"] = e2e["sync_p99_ms"];
  result_.sim["bytes_per_update"] = e2e["bytes_per_update"];
  result_.sim["applications"] = static_cast<double>(applications_);
  result_.sim["doc_updates"] = static_cast<double>(agents_.doc_updates);
  result_.sim["patches"] = static_cast<double>(patches);

  result_.attempted = applications_ + checks_ + joins_expected_;
  result_.facts["offered_edits_per_session_s"] = JsonNumber(1000.0 / kEditMs);
  result_.facts["simulated_seconds"] = JsonNumber(static_cast<double>(end_ms_) / 1e3);
  result_.facts["sessions_created"] = std::to_string(next_session_);
  result_.facts["participants_created"] = std::to_string(next_machine_);
  result_.facts["request_samples"] = std::to_string(request_us_.size());
  result_.facts["sync_samples"] = std::to_string(sync_all.size());
  result_.facts["doc_updates"] = std::to_string(agents_.doc_updates);
  result_.facts["snippet_frame_errors"] = std::to_string(frame_errors);
  const std::string persist_fs = FilesystemType(options_.work_dir);
  result_.facts["persist_dir_fs"] = JsonString(persist_fs);
  if (persist_fs == "tmpfs") {
    std::fprintf(stderr,
                 "warning: the session store is on tmpfs, so the persist "
                 "figures miss the disk writeback they are meant to show\n");
  }

  if (!options_.trace) {
    // Free the benchmark's own heap (oracles, page inputs, samples) so the
    // reading can leave it out.
    for (const auto& session : world_->sessions) {
      session->oracle.reset();
    }
    pages_ = {};
    request_us_ = {};
    poll_empty_us_ = {};
    poll_content_us_ = {};
    create_us_ = {};
    close_us_ = {};
    sync_poll_ms_ = {};
    sync_frames_ms_ = {};
    marks_ = {};
    e2e["rss_mb"] = memory.ProgramMb(&result_.facts);
    result_.end_to_end = std::move(e2e);
    return;
  }
  if (pass_ > 0) {
    return;
  }
  std::map<std::string, double>& layer = result_.per_layer;
  layer["trace.host_us_per_update"] = e2e["host_us_per_update"];
  layer["trace.request_p50_us"] = e2e["request_p50_us"];
  layer["trace.attributed_share"] =
      static_cast<double>(host_ns_ + participant_ns_) /
      static_cast<double>(std::max<int64_t>(host_ns_ + participant_ns_ + other_ns_, 1));
  result_.facts["trace_spans"] = std::to_string(spans_.recorded());
  layer["host.route_poll_empty_us"] = Mean(poll_empty_us_);
  layer["host.route_poll_content_us"] = Mean(poll_content_us_);
  layer["host.create_session_us"] = Mean(create_us_);
  layer["host.close_session_us"] = Mean(close_us_);
  // Every cobrowse session is registered (at most two are open at once).
  layer["obs.route_registered_us"] = Mean(poll_empty_us_);
  layer["core.serialize_cache_hit_ratio"] =
      cache_hits_ + cache_misses_ == 0
          ? 0.0
          : static_cast<double>(cache_hits_) /
                static_cast<double>(cache_hits_ + cache_misses_);
  layer["obs.registry_families"] = registry_families_;
  layer["browser.mutate_us"] =
      mutates_ == 0 ? 0.0 : static_cast<double>(mutate_ns_) / 1e3 /
                                static_cast<double>(mutates_);
  for (int i = 0; i < 8; ++i) {
    if (hists_.count[i] > 0) {
      layer[kHistMetrics[i]] = static_cast<double>(hists_.sum[i]) /
                               static_cast<double>(hists_.count[i]);
    }
  }
  layer["core.reuse_ratio"] =
      agents_.polls_with_content == 0
          ? 0.0
          : static_cast<double>(agents_.snapshot_reuses) /
                static_cast<double>(agents_.polls_with_content);
  layer["delta.patch_ratio"] =
      classic_updates == 0 ? 0.0
                           : static_cast<double>(classic_patches) /
                                 static_cast<double>(classic_updates);
  layer["delta.fallback_no_base"] = static_cast<double>(agents_.fallback_no_base);
  layer["delta.fallback_oversize"] =
      static_cast<double>(agents_.fallback_oversize);
  layer["snippet.apply_us"] = e2e["apply_us_per_update"];
  layer["snippet.patches_applied"] = static_cast<double>(patches);
  layer["snippet.resyncs"] = static_cast<double>(resyncs);
  layer["snippet.wasted_poll_bytes"] = static_cast<double>(wasted_bytes);
  layer["transport.frames_sent"] = static_cast<double>(agents_.frames_sent);
  layer["transport.frame_bytes"] = static_cast<double>(agents_.frame_bytes);
  layer["transport.downgrades"] = static_cast<double>(downgrades);
  layer["transport.frame_errors"] = static_cast<double>(frame_errors);
  layer["transport.sync_p50_ms_poll"] = Percentile(sync_poll_ms_, 50);
  layer["transport.sync_p50_ms_frames"] = Percentile(sync_frames_ms_, 50);
  const rcb::persist::PersistCounters& persist = world_->host->persist_counters();
  layer["persist.wal_records"] = static_cast<double>(persist.wal_records);
  layer["persist.wal_bytes"] = static_cast<double>(persist.wal_bytes);
  layer["persist.checkpoints"] = static_cast<double>(persist.checkpoints_written);
  layer["net.loop_run_us"] = static_cast<double>(loop_wall_ns_) / 1e3 /
                            (static_cast<double>(end_ms_) / 1e3);
  layer["net.events_run"] = static_cast<double>(events_);
  layer["net.messages"] = static_cast<double>(world_->network->total_messages());
  layer["net.bytes"] =
      static_cast<double>(world_->network->total_bytes_transferred());
  AttributeContent(captured_, /*delta=*/true, &spans_, &layer);
}

}  // namespace

RunResult RunCobrowse(const RunOptions& options) {
  // Pass 0 gives every figure. Further passes replay it until --seconds of
  // wall time is spent; their outputs are checked like the first's, and their
  // CPU samples join the medians. Sim-provenance figures and rss_mb stay those
  // of pass 0, which every pass repeats.
  const int64_t deadline =
      SteadyNs() + static_cast<int64_t>(options.seconds * 1e9);
  int64_t pass_start = SteadyNs();
  CobrowseRun first(options, 0);
  RunResult result = first.Run();
  CpuSamples samples = first.samples();
  int passes = 1;
  // A pass starts only if at least half of it fits before the deadline, so
  // runs end near --seconds on average.
  while (result.correct && result.failed == 0 &&
         SteadyNs() + (SteadyNs() - pass_start) / 2 < deadline) {
    pass_start = SteadyNs();
    CobrowseRun again(options, passes++);
    RunResult more = again.Run();
    result.correct = result.correct && more.correct;
    result.attempted += more.attempted;
    result.failed += more.failed;
    result.failures = std::move(more.failures);
    samples.Append(again.samples());
  }
  result.facts["passes"] = std::to_string(passes);
  std::map<std::string, double> cpu;
  samples.Fill(&cpu);
  if (options.trace) {
    result.per_layer["trace.host_us_per_update"] = cpu["host_us_per_update"];
    result.per_layer["trace.request_p50_us"] = cpu["request_p50_us"];
    result.per_layer["snippet.apply_us"] = cpu["apply_us_per_update"];
  } else {
    for (const auto& [name, value] : cpu) {
      result.end_to_end[name] = value;
    }
  }
  return result;
}

}  // namespace perfbench
