// Self-checks of the benchmark itself (run.py --selftest):
//   * the output oracle accepts the host's real responses and rejects a
//     deliberately corrupted snapshot and a deliberately corrupted patch;
//   * sim-provenance metrics repeat exactly for one seed, and each one a
//     workload exercises changes with the seed (a metric that can only be
//     one constant is flagged).
#include <cstdio>
#include <memory>

#include "perfbench/src/bench.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/pages.h"
#include "src/crypto/hmac.h"
#include "src/delta/patch_codec.h"
#include "src/host/rcb_host.h"
#include "src/html/parser.h"

namespace perfbench {
namespace {

constexpr const char* kKey = "selftest-key";
constexpr const char* kMarker = "perfbenchmarker";

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what);
  failures += ok ? 0 : 1;
}

// One session on an in-memory host with one signed poller.
struct MiniHost {
  rcb::EventLoop loop;
  rcb::Network network{&loop};
  std::unique_ptr<rcb::RcbHost> host;
  rcb::HostSession* session = nullptr;
  std::string pid;
  uint64_t seq = 0;

  explicit MiniHost(bool delta) {
    network.AddHost("host-pc", {});
    rcb::HostConfig config;
    config.agent_defaults.session_key = kKey;
    config.agent_defaults.enable_delta = delta;
    host = std::make_unique<rcb::RcbHost>(&loop, &network, config);
    if (!host->Start().ok() || !host->CreateSession("t").ok()) {
      return;
    }
    session = host->FindSession("t");
    SeededRng rng(3);
    PageInput page = SmallPage(rng, 0);
    session->browser->ReplaceDocument(rcb::ParseDocument(page.html), page.url);
    session->browser->MutateDocument(PrepareDocument);
    rcb::HttpRequest join;
    join.target = "/s/t/";
    std::string body = host->Route(join).body;
    const std::string marker = "name=\"rcb-pid\" content=\"";
    size_t at = body.find(marker);
    if (at != std::string::npos) {
      at += marker.size();
      pid = body.substr(at, body.find('"', at) - at);
    }
  }

  std::string Poll(int64_t acked_ms, bool patch) {
    rcb::PollRequest poll;
    poll.participant_id = pid;
    poll.doc_time_ms = acked_ms;
    poll.seq = ++seq;
    poll.patch = patch;
    rcb::HttpRequest request;
    request.method = rcb::HttpMethod::kPost;
    request.body = rcb::EncodePollRequest(poll);
    request.target =
        "/s/t/?hmac=" + rcb::HmacSha256Hex(kKey, "POST /\n" + request.body);
    return host->Route(request).body;
  }

  void Edit(const std::string& text) {
    loop.RunFor(rcb::Duration::Millis(10));
    session->browser->MutateDocument(
        [&text](rcb::Document* document) { TextEdit(document, text); });
  }
};

std::string Corrupt(std::string body) {
  size_t at = body.find(kMarker);
  if (at != std::string::npos) {
    body[at] = 'q';
  }
  return body;
}

void CheckOracle() {
  std::printf("oracle\n");
  {
    MiniHost mini(/*delta=*/false);
    if (mini.session == nullptr || mini.pid.empty()) {
      Expect(false, "host session with a joined poller");
      return;
    }
    mini.Edit(kMarker);
    std::string body = mini.Poll(-1, false);
    ContentOracle oracle(mini.session->browser.get(),
                         mini.session->agent->AgentUrl());
    Expect(Corrupt(body) != body, "snapshot carries the marker text");
    Expect(!oracle.Check(Corrupt(body), -1).error.empty(),
           "corrupted snapshot is rejected");
    Verdict verdict = oracle.Check(body, -1);
    Expect(verdict.error.empty() && verdict.content,
           "host snapshot is accepted");
  }
  {
    MiniHost mini(/*delta=*/true);
    if (mini.session == nullptr || mini.pid.empty()) {
      Expect(false, "delta host session with a joined poller");
      return;
    }
    ContentOracle oracle(mini.session->browser.get(),
                         mini.session->agent->AgentUrl());
    Verdict first = oracle.Check(mini.Poll(-1, true), -1);
    Expect(first.error.empty() && !first.patch, "first poll gets a snapshot");
    mini.Edit(kMarker);
    std::string body = mini.Poll(first.doc_time_ms, true);
    Expect(rcb::delta::LooksLikePatchXml(body) && Corrupt(body) != body,
           "second poll gets a patch carrying the marker text");
    // A fresh oracle holds no verified bodies, so both copies are decoded.
    ContentOracle fresh(mini.session->browser.get(),
                        mini.session->agent->AgentUrl());
    fresh.RefFor(first.doc_time_ms)->snapshot = oracle.Find(first.doc_time_ms)->snapshot;
    Expect(!fresh.Check(Corrupt(body), first.doc_time_ms).error.empty(),
           "corrupted patch is rejected");
    Verdict verdict = oracle.Check(body, first.doc_time_ms);
    Expect(verdict.error.empty() && verdict.patch, "host patch is accepted");
  }
}

void CheckDeterminism(const std::string& work_dir) {
  std::printf("determinism\n");
  for (const char* workload : {"fanout", "cobrowse"}) {
    RunOptions options;
    options.workload = workload;
    options.seconds = 1;
    options.work_dir = work_dir;
    auto run = [&](uint64_t seed) {
      options.seed = seed;
      return std::string(workload) == "cobrowse" ? RunCobrowse(options)
                                                 : RunReplay(options);
    };
    RunResult a = run(7), b = run(7), c = run(8), d = run(9);
    Expect(a.failed + c.failed + d.failed == 0,
           (std::string(workload) + ": runs pass the oracle").c_str());
    Expect(a.sim == b.sim,
           (std::string(workload) + ": same seed, same sim metrics").c_str());
    // Two seeds may tie on a count by chance; three seeds that all agree
    // flag a metric the seed cannot move.
    for (const auto& [name, value] : a.sim) {
      if (value == 0 && c.sim[name] == 0 && d.sim[name] == 0) {
        continue;  // not exercised by this workload
      }
      Expect(c.sim[name] != value || d.sim[name] != value,
             (std::string(workload) + ": " + name + " moves with the seed")
                 .c_str());
    }
  }
}

}  // namespace

int RunSelfTest(const std::string& work_dir) {
  CheckOracle();
  CheckDeterminism(work_dir);
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
