#include "src/persist/session_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/util/strings.h"

namespace rcb {
namespace persist {
namespace {

namespace fs = std::filesystem;

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

// One open, a write loop, one close: no stream buffer per record, and no
// descriptor held between records (a host may persist thousands of
// sessions).
Status WriteFileBytes(const std::string& path, std::string_view bytes,
                      bool truncate) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_CLOEXEC |
                            (truncate ? O_TRUNC : O_APPEND),
                        0666);
  if (fd < 0) {
    return InternalError("cannot open " + path + " for writing");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    written += static_cast<size_t>(n);
  }
  ::close(fd);
  if (written < bytes.size()) {
    return InternalError("short write to " + path);
  }
  return Status::Ok();
}

// Replays one log onto the checkpointed state. Only roster / anti-replay
// records mutate state; document versions and actions past the checkpoint
// have no durable content and are counted as losses instead.
void ApplyWal(const WalReplay& wal, LoadResult* result) {
  auto& state = result->checkpoint.state;
  auto find = [&state](const std::string& pid) -> ParticipantExport* {
    for (ParticipantExport& participant : state.participants) {
      if (participant.pid == pid) {
        return &participant;
      }
    }
    return nullptr;
  };
  for (const WalRecord& record : wal.records) {
    switch (record.type) {
      case WalRecordType::kDocVersion:
        ++result->doc_versions_lost;
        break;
      case WalRecordType::kSeq: {
        ParticipantExport* participant = find(record.pid);
        if (participant == nullptr) {
          state.participants.push_back(ParticipantExport{record.pid});
          participant = &state.participants.back();
        }
        participant->last_seq = std::max(participant->last_seq, record.seq);
        break;
      }
      case WalRecordType::kAction:
        ++result->actions_logged;
        break;
      case WalRecordType::kJoin: {
        if (find(record.pid) == nullptr) {
          state.participants.push_back(ParticipantExport{record.pid});
        }
        // Agent-assigned pids are "p<N>"; keep the allocator ahead of every
        // pid that ever joined so recovery never re-issues one.
        uint64_t n = 0;
        if (record.pid.size() > 1 && record.pid.front() == 'p' &&
            ParseUint64(std::string_view(record.pid).substr(1), &n)) {
          state.next_pid = std::max(state.next_pid, n + 1);
        }
        break;
      }
      case WalRecordType::kLeave: {
        auto it = std::find_if(
            state.participants.begin(), state.participants.end(),
            [&](const ParticipantExport& p) { return p.pid == record.pid; });
        if (it != state.participants.end()) {
          state.participants.erase(it);
        }
        break;
      }
      case WalRecordType::kHeader:
        break;  // DecodeWal never emits one as a record
    }
  }
}

}  // namespace

SessionStore::SessionStore(std::string session_id, PersistOptions options,
                           PersistCounters* counters,
                           ProcessFaultInjector* faults)
    : session_id_(std::move(session_id)),
      options_(std::move(options)),
      counters_(counters),
      faults_(faults) {}

std::string SessionStore::CheckpointPath() const {
  return (fs::path(options_.dir) / (session_id_ + ".ckpt")).string();
}

std::string SessionStore::WalPath() const {
  return (fs::path(options_.dir) / (session_id_ + ".wal")).string();
}

bool SessionStore::Crashed() const {
  return faults_ != nullptr && faults_->crashed();
}

bool SessionStore::Crash(CrashPoint site) {
  return faults_ != nullptr && faults_->ShouldCrash(site, session_id_);
}

Status SessionStore::AppendToWalFile(std::string_view bytes) {
  return WriteFileBytes(WalPath(), bytes, /*truncate=*/false);
}

Status SessionStore::Append(const WalRecord& record) {
  if (!options_.enabled() || Crashed()) {
    return Status::Ok();  // a dead process writes nothing
  }
  std::string frame = EncodeWalRecord(record);
  if (Crash(CrashPoint::kTornWalFrame)) {
    // The process dies mid-write: whatever was buffered plus the front half
    // of this frame reaches disk, leaving a torn tail for recovery to cut.
    ++counters_->torn_writes;
    std::string torn = pending_ + frame.substr(0, frame.size() / 2);
    return AppendToWalFile(torn);
  }
  pending_ += frame;
  ++counters_->wal_records;
  counters_->wal_bytes += frame.size();
  ++dirty_records_;
  dirty_bytes_ += frame.size();
  if (Crash(CrashPoint::kBeforeWalFlush)) {
    return Status::Ok();  // buffered bytes never reach disk
  }
  if (Crash(CrashPoint::kPartialFlush)) {
    // The flush itself is cut short: a whole-frame prefix plus half of the
    // final frame lands on disk.
    ++counters_->torn_writes;
    return AppendToWalFile(
        std::string_view(pending_).substr(0, pending_.size() / 2));
  }
  RCB_RETURN_IF_ERROR(AppendToWalFile(pending_));
  pending_.clear();
  if (Crash(CrashPoint::kAfterWalAppend)) {
    return Status::Ok();  // record is durable; the ack it backs is not sent
  }
  return Status::Ok();
}

Status SessionStore::WriteCheckpoint(SessionCheckpoint checkpoint) {
  if (!options_.enabled() || Crashed()) {
    return Status::Ok();
  }
  checkpoint.session_id = session_id_;
  checkpoint.epoch = epoch_ + 1;
  std::string bytes = EncodeCheckpoint(checkpoint);
  std::string final_path = CheckpointPath();
  std::string tmp_path = final_path + ".tmp";
  if (Crash(CrashPoint::kTornCheckpointTmp)) {
    // Died while staging: the tmp file is torn but the previous checkpoint
    // and its log are untouched — recovery proceeds from them.
    ++counters_->torn_writes;
    return WriteFileBytes(tmp_path, bytes.substr(0, bytes.size() / 2),
                          /*truncate=*/true);
  }
  RCB_RETURN_IF_ERROR(WriteFileBytes(tmp_path, bytes, /*truncate=*/true));
  if (Crash(CrashPoint::kTornCheckpointSwap)) {
    // Models a non-atomic swap (overwrite-in-place): the old checkpoint is
    // destroyed and the new one is torn — the worst defined crash, which the
    // integrity gates must turn into a per-session discard, never a crash.
    ++counters_->torn_writes;
    return WriteFileBytes(final_path, bytes.substr(0, bytes.size() / 2),
                          /*truncate=*/true);
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return InternalError("checkpoint rename failed: " + ec.message());
  }
  epoch_ = checkpoint.epoch;
  ++counters_->checkpoints_written;
  counters_->checkpoint_bytes += bytes.size();
  // Truncate the log: everything it held is folded into this checkpoint.
  RCB_RETURN_IF_ERROR(WriteFileBytes(
      WalPath(),
      EncodeWalFileHeader(session_id_, epoch_, checkpoint.state.doc_time_ms),
      /*truncate=*/true));
  ++counters_->wal_truncations;
  dirty_records_ = 0;
  dirty_bytes_ = 0;
  pending_.clear();
  return Status::Ok();
}

void SessionStore::RemoveFiles() {
  if (!options_.enabled() || Crashed()) {
    return;
  }
  std::error_code ec;
  fs::remove(CheckpointPath(), ec);
  fs::remove(CheckpointPath() + ".tmp", ec);
  fs::remove(WalPath(), ec);
}

StatusOr<LoadResult> LoadSession(const std::string& checkpoint_path,
                                 const std::string& wal_path,
                                 PersistCounters* counters) {
  auto bytes = ReadFileBytes(checkpoint_path);
  if (!bytes.ok()) {
    ++counters->checkpoints_rejected;
    return bytes.status();
  }
  auto checkpoint = DecodeCheckpoint(*bytes);
  if (!checkpoint.ok()) {
    ++counters->checkpoints_rejected;
    return checkpoint.status();
  }
  LoadResult result;
  result.checkpoint = std::move(*checkpoint);
  result.epoch = result.checkpoint.epoch;

  auto wal_bytes = ReadFileBytes(wal_path);
  if (!wal_bytes.ok()) {
    return result;  // no log: the checkpoint alone is the session
  }
  result.wal_present = true;
  auto replay = DecodeWal(*wal_bytes);
  if (!replay.ok()) {
    // Unusable as a unit (bad magic / header): rung two of the ladder —
    // keep the checkpoint, drop the log.
    result.wal_discarded = true;
    ++counters->wals_discarded;
    return result;
  }
  if (replay->session_id != result.checkpoint.session_id ||
      replay->epoch != result.checkpoint.epoch) {
    // A log from another generation (or another session's file moved into
    // place) must not replay onto this checkpoint.
    result.wal_discarded = true;
    ++counters->wals_discarded;
    return result;
  }
  if (replay->tail_discarded) {
    result.wal_tail_discarded = true;
    ++counters->wal_tail_discards;
  }
  ApplyWal(*replay, &result);
  counters->wal_records_replayed += replay->records.size();
  return result;
}

}  // namespace persist
}  // namespace rcb
