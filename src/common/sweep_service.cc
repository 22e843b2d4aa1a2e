#include "common/sweep_service.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/file.h"
#include "common/scheduler.h"

namespace hsis::common {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

Result<Bytes> ReadSweepFrame(int fd) {
  // Reads exactly n bytes; clean EOF is only legal at the very first
  // byte of the length prefix (between frames).
  auto recv_full = [fd](uint8_t* data, size_t n,
                        bool eof_ok) -> Result<size_t> {
    size_t off = 0;
    while (off < n) {
      ssize_t r = ::recv(fd, data + off, n - off, 0);
      if (r == 0) {
        if (off == 0 && eof_ok) return static_cast<size_t>(0);
        return Status::ProtocolViolation(
            "sweepd connection closed mid-frame");
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return Status::Internal("sweepd receive timed out");
        }
        return Status::Internal(Errno("sweepd recv failed"));
      }
      off += static_cast<size_t>(r);
    }
    return off;
  };

  uint8_t prefix[4];
  HSIS_ASSIGN_OR_RETURN(size_t got, recv_full(prefix, 4, /*eof_ok=*/true));
  if (got == 0) return Status::NotFound("sweepd connection closed");
  Bytes head(prefix, prefix + 4);
  uint32_t len = ReadUint32BE(head, 0);
  if (len == 0) {
    return Status::ProtocolViolation("sweepd frame with zero-length body");
  }
  if (len > kSweepWireMaxFrame) {
    return Status::ProtocolViolation(
        "sweepd frame of " + std::to_string(len) + " bytes exceeds the " +
        std::to_string(kSweepWireMaxFrame) + "-byte cap");
  }
  Bytes body(len);
  HSIS_ASSIGN_OR_RETURN(got, recv_full(body.data(), len, /*eof_ok=*/false));
  return body;
}

Status WriteSweepFrame(int fd, const Bytes& body) {
  if (body.empty() || body.size() > kSweepWireMaxFrame) {
    return Status::Internal("sweepd frame body of " +
                            std::to_string(body.size()) +
                            " bytes cannot be framed");
  }
  Bytes wire;
  wire.reserve(4 + body.size());
  AppendUint32BE(wire, static_cast<uint32_t>(body.size()));
  Append(wire, body);
  size_t off = 0;
  while (off < wire.size()) {
    ssize_t w = ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Internal("sweepd send timed out");
      }
      return Status::Internal(Errno("sweepd send failed"));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ShardLeaseTable
// ---------------------------------------------------------------------------

ShardLeaseTable::ShardLeaseTable(
    ShardPlanInfo info, std::string dir, SweepLeaseOptions options,
    std::function<void(const std::string&)> on_event)
    : info_(std::move(info)),
      dir_(std::move(dir)),
      options_(options),
      on_event_(std::move(on_event)),
      plan_(ShardPlan::Create(info_.total, info_.shards).value()),
      states_(static_cast<size_t>(info_.shards), ShardState::kPending),
      attempts_(static_cast<size_t>(info_.shards), 0),
      ready_at_ms_(static_cast<size_t>(info_.shards), 0),
      manifest_sha_(static_cast<size_t>(info_.shards)) {}

Result<ShardLeaseTable> ShardLeaseTable::Create(
    ShardPlanInfo info, std::string dir, SweepLeaseOptions options,
    std::function<void(const std::string&)> on_event) {
  if (options.lease_ms < 1) {
    return Status::InvalidArgument("lease_ms must be >= 1");
  }
  if (options.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (options.retry_ms < 1) {
    return Status::InvalidArgument("retry_ms must be >= 1");
  }
  if (options.backoff_initial_ms < 0 || options.backoff_max_ms < 0) {
    return Status::InvalidArgument("backoff delays must be >= 0");
  }
  auto plan = ShardPlan::Create(info.total, info.shards);
  if (!plan.ok()) return plan.status();

  ShardLeaseTable table(std::move(info), std::move(dir), options,
                        std::move(on_event));

  // Startup scan, exactly the scheduler's: committed shards resume as
  // done, corrupt shards are quarantined, contradictions refuse
  // service.
  for (int k = 0; k < table.info_.shards; ++k) {
    Status v = ValidateShard(table.info_, table.dir_, k);
    if (v.ok()) {
      HSIS_RETURN_IF_ERROR(table.MarkCommitted(k, "resume"));
      ++table.stats_.resumed;
      continue;
    }
    switch (v.code()) {
      case StatusCode::kNotFound:
        break;  // never ran: pending
      case StatusCode::kIntegrityViolation:
        HSIS_RETURN_IF_ERROR(table.Quarantine(k));
        break;
      default:
        return Status::InvalidArgument(
            "shard " + std::to_string(k) +
            " contradicts the plan; refusing to serve: " + v.message());
    }
  }
  table.Emit("serving sweep=" + table.info_.sweep + " shards=" +
             std::to_string(table.info_.shards) + " resumed=" +
             std::to_string(table.stats_.resumed));
  return table;
}

void ShardLeaseTable::Emit(const std::string& line) {
  if (on_event_) on_event_(line);
}

Status ShardLeaseTable::Quarantine(int shard) {
  const std::string qdir = ShardQuarantineDir(dir_);
  HSIS_RETURN_IF_ERROR(CreateDirectories(qdir));
  std::string tag;
  do {
    tag = qdir + "/shard-" + std::to_string(shard) + ".q" +
          std::to_string(quarantine_seq_++);
  } while (FileExists(tag + ".bin") || FileExists(tag + ".manifest"));
  const std::string payload = ShardPayloadPath(dir_, shard);
  const std::string manifest = ShardManifestPath(dir_, shard);
  if (FileExists(payload)) {
    HSIS_RETURN_IF_ERROR(RenameFile(payload, tag + ".bin"));
  }
  if (FileExists(manifest)) {
    HSIS_RETURN_IF_ERROR(RenameFile(manifest, tag + ".manifest"));
  }
  ++stats_.quarantined;
  Emit("quarantine shard=" + std::to_string(shard) + " -> " + tag + ".*");
  return Status::OK();
}

Status ShardLeaseTable::MarkCommitted(int shard, const char* how) {
  auto text = ReadFile(ShardManifestPath(dir_, shard));
  if (!text.ok()) return text.status();
  auto manifest = ParseShardManifest(*text);
  if (!manifest.ok()) return manifest.status();
  manifest_sha_[static_cast<size_t>(shard)] = manifest->payload_sha256;
  states_[static_cast<size_t>(shard)] = ShardState::kCommitted;
  SweepServiceStats s = stats();
  Emit(std::string(how) + " shard=" + std::to_string(shard) + " (" +
       std::to_string(s.committed) + "/" + std::to_string(s.shards) +
       " committed)");
  if (drained()) Emit("drained " + std::to_string(s.shards) + " shards");
  return Status::OK();
}

void ShardLeaseTable::AttemptFailed(int shard, const Status& why,
                                    int64_t now_ms) {
  const size_t k = static_cast<size_t>(shard);
  if (attempts_[k] >= options_.max_attempts) {
    states_[k] = ShardState::kFailed;
    run_status_ = Status::Internal(
        "shard " + std::to_string(shard) + " exhausted " +
        std::to_string(options_.max_attempts) +
        " attempts; last failure: " + why.ToString());
    Emit("fail-run shard=" + std::to_string(shard) + ": " + why.ToString());
    return;
  }
  states_[k] = ShardState::kPending;
  int64_t backoff = BackoffDelayMs(options_.backoff_initial_ms,
                                   options_.backoff_max_ms, attempts_[k]);
  ready_at_ms_[k] = now_ms + backoff;
  Emit("requeue shard=" + std::to_string(shard) + " attempts=" +
       std::to_string(attempts_[k]) + " backoff_ms=" +
       std::to_string(backoff) + ": " + why.ToString());
}

void ShardLeaseTable::ReclaimShard(int shard, const char* why,
                                   int64_t now_ms) {
  Status v = ValidateShard(info_, dir_, shard);
  if (v.ok()) {
    // The worker died (or reported failure) *after* committing; the
    // committed files are the truth.
    Status c = MarkCommitted(shard, "reclaim-commit");
    if (c.ok()) return;
    v = c;
  }
  switch (v.code()) {
    case StatusCode::kNotFound:
      AttemptFailed(shard,
                    Status::Internal(std::string(why) + "; nothing committed"),
                    now_ms);
      return;
    case StatusCode::kInvalidArgument: {
      states_[static_cast<size_t>(shard)] = ShardState::kFailed;
      run_status_ = Status::InvalidArgument(
          "shard " + std::to_string(shard) +
          " contradicts the plan: " + v.message());
      Emit("fail-run shard=" + std::to_string(shard) + ": " + v.message());
      return;
    }
    default: {  // IntegrityViolation (and read failures)
      Status q = Quarantine(shard);
      if (!q.ok()) {
        Emit("quarantine-error shard=" + std::to_string(shard) + ": " +
             q.ToString());
      }
      AttemptFailed(shard, v, now_ms);
      return;
    }
  }
}

int ShardLeaseTable::ExpireLeases(int64_t now_ms) {
  int reclaimed = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.deadline_ms > now_ms) {
      ++it;
      continue;
    }
    const int shard = it->second.shard;
    Emit("expire lease=" + std::to_string(it->first) + " shard=" +
         std::to_string(shard) + " worker=" + it->second.worker);
    it = leases_.erase(it);
    ++stats_.expired;
    ReclaimShard(shard, "lease expired", now_ms);
    ++reclaimed;
  }
  return reclaimed;
}

Result<std::variant<SweepGrant, SweepNoGrant>> ShardLeaseTable::Acquire(
    const std::string& worker, int64_t now_ms) {
  ExpireLeases(now_ms);
  if (!run_status_.ok()) return run_status_;
  if (drained()) return std::variant<SweepGrant, SweepNoGrant>(
      SweepNoGrant{/*drained=*/true, /*retry_ms=*/0});

  int64_t min_wait = -1;
  for (int k = 0; k < info_.shards; ++k) {
    if (states_[static_cast<size_t>(k)] != ShardState::kPending) continue;
    const int64_t wait = ready_at_ms_[static_cast<size_t>(k)] - now_ms;
    if (wait > 0) {
      if (min_wait < 0 || wait < min_wait) min_wait = wait;
      continue;
    }
    const size_t sk = static_cast<size_t>(k);
    ++attempts_[sk];
    if (attempts_[sk] > 1) ++stats_.retries;
    const uint64_t lease_id = next_lease_id_++;
    leases_[lease_id] = Lease{k, worker, now_ms + options_.lease_ms};
    states_[sk] = ShardState::kLeased;
    Emit("grant shard=" + std::to_string(k) + " lease=" +
         std::to_string(lease_id) + " worker=" + worker + " attempt=" +
         std::to_string(attempts_[sk]));
    return std::variant<SweepGrant, SweepNoGrant>(
        SweepGrant{lease_id, k, plan_.Range(k), attempts_[sk]});
  }

  int64_t retry = options_.retry_ms;
  if (min_wait > 0 && min_wait < retry) retry = min_wait;
  return std::variant<SweepGrant, SweepNoGrant>(
      SweepNoGrant{/*drained=*/false, retry});
}

Result<int64_t> ShardLeaseTable::Renew(uint64_t lease_id, int shard,
                                       int64_t now_ms) {
  ExpireLeases(now_ms);
  auto it = leases_.find(lease_id);
  if (it == leases_.end()) {
    return Status::NotFound("lease " + std::to_string(lease_id) +
                            " is unknown or expired; abandon shard " +
                            std::to_string(shard));
  }
  if (it->second.shard != shard) {
    return Status::InvalidArgument(
        "lease " + std::to_string(lease_id) + " covers shard " +
        std::to_string(it->second.shard) + ", not shard " +
        std::to_string(shard));
  }
  it->second.deadline_ms = now_ms + options_.lease_ms;
  Emit("renew lease=" + std::to_string(lease_id) + " shard=" +
       std::to_string(shard) + " worker=" + it->second.worker);
  return options_.lease_ms;
}

Result<SweepCompleteOutcome> ShardLeaseTable::Complete(
    uint64_t lease_id, int shard, const std::string& payload_sha256,
    int64_t now_ms) {
  ExpireLeases(now_ms);
  if (shard < 0 || shard >= info_.shards) {
    return Status::InvalidArgument("completion for shard " +
                                   std::to_string(shard) +
                                   " outside the plan's " +
                                   std::to_string(info_.shards) + " shards");
  }
  if (!run_status_.ok()) return run_status_;
  const size_t sk = static_cast<size_t>(shard);

  // At most one lease is active per shard; find it, and whether the
  // claimant is that holder (a stale lease_id means a zombie worker
  // racing its replacement — its claim must not disturb the holder).
  auto holder = leases_.end();
  for (auto it = leases_.begin(); it != leases_.end(); ++it) {
    if (it->second.shard == shard) {
      holder = it;
      break;
    }
  }
  const bool claimant_holds =
      holder != leases_.end() && holder->first == lease_id;

  if (states_[sk] == ShardState::kCommitted) {
    if (claimant_holds) leases_.erase(holder);
    if (payload_sha256 != manifest_sha_[sk]) {
      return Status::IntegrityViolation(
          "shard " + std::to_string(shard) +
          " is already committed but the reported payload digest "
          "disagrees with its manifest");
    }
    Emit("duplicate-complete shard=" + std::to_string(shard) + " lease=" +
         std::to_string(lease_id));
    return SweepCompleteOutcome{/*duplicate=*/true, stats().committed};
  }

  Status v = ValidateShard(info_, dir_, shard);
  if (v.ok()) {
    // Committed files are the truth, whoever wrote them; any active
    // lease on the shard is now meaningless.
    if (holder != leases_.end()) leases_.erase(holder);
    Status c = MarkCommitted(shard, "commit");
    if (!c.ok()) v = c;  // fall through to the failure taxonomy below
  }
  if (v.ok()) {
    if (payload_sha256 != manifest_sha_[sk]) {
      // The files on disk validate, so the shard *is* committed; only
      // the worker's report is wrong. Keep the commit, tell the worker.
      return Status::IntegrityViolation(
          "shard " + std::to_string(shard) +
          " committed, but the reported payload digest disagrees with "
          "the manifest on disk — the worker is confused");
    }
    return SweepCompleteOutcome{/*duplicate=*/false, stats().committed};
  }

  switch (v.code()) {
    case StatusCode::kNotFound: {
      if (claimant_holds) {
        leases_.erase(holder);
        AttemptFailed(shard, v, now_ms);
      }
      return Status::NotFound(
          "completion claim for shard " + std::to_string(shard) +
          " rejected: nothing committed on disk (" + v.message() +
          "); is the worker writing to the daemon's results directory?");
    }
    case StatusCode::kInvalidArgument: {
      states_[sk] = ShardState::kFailed;
      if (holder != leases_.end()) leases_.erase(holder);
      run_status_ = Status::InvalidArgument(
          "shard " + std::to_string(shard) +
          " contradicts the plan: " + v.message());
      Emit("fail-run shard=" + std::to_string(shard) + ": " + v.message());
      return run_status_;
    }
    default: {  // IntegrityViolation (and manifest read failures)
      if (holder != leases_.end() && !claimant_holds) {
        // A stale claim while another worker holds the lease: its
        // in-flight files are not ours to quarantine — reject only.
        return Status::IntegrityViolation(
            "stale completion claim for shard " + std::to_string(shard) +
            " rejected: " + v.message());
      }
      Status q = Quarantine(shard);
      if (!q.ok()) {
        Emit("quarantine-error shard=" + std::to_string(shard) + ": " +
             q.ToString());
      }
      if (claimant_holds) {
        leases_.erase(holder);
        AttemptFailed(shard, v, now_ms);
      }
      return Status::IntegrityViolation(
          "completion claim for shard " + std::to_string(shard) +
          " rejected and quarantined: " + v.message());
    }
  }
}

Result<bool> ShardLeaseTable::ReportFailure(uint64_t lease_id, int shard,
                                            const std::string& message,
                                            int64_t now_ms) {
  ExpireLeases(now_ms);
  auto it = leases_.find(lease_id);
  if (it == leases_.end()) {
    return Status::NotFound("lease " + std::to_string(lease_id) +
                            " is unknown or already reclaimed");
  }
  if (it->second.shard != shard) {
    return Status::InvalidArgument(
        "lease " + std::to_string(lease_id) + " covers shard " +
        std::to_string(it->second.shard) + ", not shard " +
        std::to_string(shard));
  }
  Emit("worker-fail shard=" + std::to_string(shard) + " lease=" +
       std::to_string(lease_id) + ": " + message);
  leases_.erase(it);
  ++stats_.failed_reports;
  // Validate anyway — a worker that committed and then reported failure
  // is still a committed shard (the files are the truth).
  ReclaimShard(shard, "worker reported failure", now_ms);
  return states_[static_cast<size_t>(shard)] == ShardState::kPending;
}

bool ShardLeaseTable::drained() const {
  for (ShardState s : states_) {
    if (s != ShardState::kCommitted) return false;
  }
  return true;
}

SweepServiceStats ShardLeaseTable::stats() const {
  SweepServiceStats s = stats_;
  s.shards = info_.shards;
  s.committed = 0;
  s.pending = 0;
  for (ShardState st : states_) {
    if (st == ShardState::kCommitted) ++s.committed;
    if (st == ShardState::kPending) ++s.pending;
  }
  s.leased = static_cast<int>(leases_.size());
  return s;
}

// ---------------------------------------------------------------------------
// SweepService
// ---------------------------------------------------------------------------

struct SweepService::Impl {
  std::string dir;
  SweepServiceOptions options;
  int listen_fd = -1;

  std::mutex mu;  // guards everything below (and the lease table)
  std::condition_variable cv;
  std::optional<ShardLeaseTable> table;
  bool stopping = false;
  bool stopped = false;
  bool shutdown_requested = false;
  std::vector<int> open_fds;
  std::vector<std::thread> handlers;

  std::thread accept_thread;
};

int64_t SweepService::NowMs() const {
  if (impl_->options.now_ms) return impl_->options.now_ms();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<std::unique_ptr<SweepService>> SweepService::Start(
    ShardPlanInfo info, std::string dir, SweepServiceOptions options) {
  if (options.expiry_poll_ms < 1) {
    return Status::InvalidArgument("expiry_poll_ms must be >= 1");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }

  auto service = std::unique_ptr<SweepService>(new SweepService());
  service->impl_ = std::make_unique<Impl>();
  Impl* impl = service->impl_.get();
  impl->dir = dir;
  impl->options = options;

  HSIS_ASSIGN_OR_RETURN(
      ShardLeaseTable table,
      ShardLeaseTable::Create(std::move(info), std::move(dir), options.lease,
                              options.on_event));
  impl->table.emplace(std::move(table));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("sweepd socket failed"));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("sweepd cannot parse bind address '" +
                                   options.host + "' (use dotted IPv4)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::Internal(Errno("sweepd bind failed"));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    Status s = Status::Internal(Errno("sweepd listen failed"));
    ::close(fd);
    return s;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    Status s = Status::Internal(Errno("sweepd getsockname failed"));
    ::close(fd);
    return s;
  }
  impl->listen_fd = fd;
  service->port_ = ntohs(bound.sin_port);

  impl->accept_thread = std::thread(&SweepService::AcceptLoop, service.get());
  return service;
}

SweepService::~SweepService() {
  if (impl_) Stop();
}

void SweepService::AcceptLoop() {
  Impl* impl = impl_.get();
  for (;;) {
    pollfd pfd{impl->listen_fd, POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(impl->options.expiry_poll_ms));
    {
      std::lock_guard<std::mutex> lock(impl->mu);
      if (impl->stopping) return;
      impl->table->ExpireLeases(NowMs());
      if (impl->table->drained() || !impl->table->run_status().ok()) {
        impl->cv.notify_all();
      }
    }
    if ((pfd.revents & POLLIN) == 0) continue;
    int cfd = ::accept(impl->listen_fd, nullptr, nullptr);
    if (cfd < 0) continue;  // EAGAIN, aborted handshake, or shutdown
    std::lock_guard<std::mutex> lock(impl->mu);
    if (impl->stopping) {
      ::close(cfd);
      return;
    }
    impl->open_fds.push_back(cfd);
    impl->handlers.emplace_back(&SweepService::ServeConnection, this, cfd);
  }
}

void SweepService::ServeConnection(int fd) {
  Impl* impl = impl_.get();
  for (;;) {
    auto body = ReadSweepFrame(fd);
    if (!body.ok()) {
      if (body.status().code() == StatusCode::kProtocolViolation) {
        // Best effort: name the defect before poisoning the connection.
        WriteSweepFrame(
            fd, SerializeSweepFrame(SweepFrame(ToSweepError(body.status()))));
      }
      break;
    }
    auto frame = ParseSweepFrame(*body);
    SweepFrame reply = frame.ok()
                           ? Dispatch(*frame)
                           : SweepFrame(ToSweepError(frame.status()));
    bool poison = false;
    if (const auto* err = std::get_if<SweepErrorReply>(&reply)) {
      poison = err->code ==
               static_cast<uint8_t>(StatusCode::kProtocolViolation);
    }
    if (!WriteSweepFrame(fd, SerializeSweepFrame(reply)).ok()) break;
    if (poison) break;
  }
  std::lock_guard<std::mutex> lock(impl->mu);
  for (auto it = impl->open_fds.begin(); it != impl->open_fds.end(); ++it) {
    if (*it == fd) {
      impl->open_fds.erase(it);
      break;
    }
  }
  ::close(fd);
}

SweepFrame SweepService::Dispatch(const SweepFrame& request) {
  Impl* impl = impl_.get();
  std::lock_guard<std::mutex> lock(impl->mu);
  ShardLeaseTable& table = *impl->table;
  const int64_t now = NowMs();
  const ShardPlanInfo& info = table.info();

  auto error = [](const Status& s) { return SweepFrame(ToSweepError(s)); };
  auto notify_if_done = [&]() {
    if (table.drained() || !table.run_status().ok()) impl->cv.notify_all();
  };

  if (const auto* req = std::get_if<SweepLeaseRequest>(&request)) {
    auto acquired = table.Acquire(req->worker, now);
    notify_if_done();
    if (!acquired.ok()) return error(acquired.status());
    if (const auto* grant = std::get_if<SweepGrant>(&*acquired)) {
      SweepLeaseGrant g;
      g.lease_id = grant->lease_id;
      g.shard = static_cast<uint32_t>(grant->shard);
      g.begin = grant->range.begin;
      g.end = grant->range.end;
      g.lease_ms = static_cast<uint64_t>(impl->options.lease.lease_ms);
      g.sweep = info.sweep;
      g.total = info.total;
      g.shards = static_cast<uint32_t>(info.shards);
      g.seed = info.seed;
      return SweepFrame(g);
    }
    const auto& none = std::get<SweepNoGrant>(*acquired);
    SweepServiceStats s = table.stats();
    SweepNoWork reply;
    reply.drained = none.drained ? 1 : 0;
    reply.retry_ms = static_cast<uint64_t>(none.retry_ms);
    reply.committed = static_cast<uint32_t>(s.committed);
    reply.shards = static_cast<uint32_t>(s.shards);
    return SweepFrame(reply);
  }
  if (const auto* req = std::get_if<SweepHeartbeat>(&request)) {
    auto renewed =
        table.Renew(req->lease_id, static_cast<int>(req->shard), now);
    if (!renewed.ok()) return error(renewed.status());
    return SweepFrame(SweepHeartbeatAck{
        req->lease_id, static_cast<uint64_t>(*renewed)});
  }
  if (const auto* req = std::get_if<SweepComplete>(&request)) {
    auto outcome = table.Complete(req->lease_id, static_cast<int>(req->shard),
                                  req->payload_sha256, now);
    notify_if_done();
    if (!outcome.ok()) return error(outcome.status());
    SweepCompleteAck ack;
    ack.shard = req->shard;
    ack.duplicate = outcome->duplicate ? 1 : 0;
    ack.committed = static_cast<uint32_t>(outcome->committed);
    ack.shards = static_cast<uint32_t>(info.shards);
    return SweepFrame(ack);
  }
  if (const auto* req = std::get_if<SweepFail>(&request)) {
    auto will_retry = table.ReportFailure(
        req->lease_id, static_cast<int>(req->shard), req->message, now);
    notify_if_done();
    if (!will_retry.ok()) return error(will_retry.status());
    return SweepFrame(
        SweepFailAck{req->shard, static_cast<uint8_t>(*will_retry ? 1 : 0)});
  }
  if (std::holds_alternative<SweepStatusRequest>(request)) {
    SweepServiceStats s = table.stats();
    SweepStatusReply reply;
    reply.sweep = info.sweep;
    reply.shards = static_cast<uint32_t>(s.shards);
    reply.committed = static_cast<uint32_t>(s.committed);
    reply.leased = static_cast<uint32_t>(s.leased);
    reply.pending = static_cast<uint32_t>(s.pending);
    reply.resumed = static_cast<uint32_t>(s.resumed);
    reply.retries = static_cast<uint32_t>(s.retries);
    reply.expired = static_cast<uint32_t>(s.expired);
    reply.quarantined = static_cast<uint32_t>(s.quarantined);
    reply.drained = table.drained() ? 1 : 0;
    return SweepFrame(reply);
  }
  if (std::holds_alternative<SweepShutdown>(request)) {
    impl->shutdown_requested = true;
    impl->cv.notify_all();
    SweepServiceStats s = table.stats();
    return SweepFrame(SweepShutdownAck{static_cast<uint32_t>(s.committed),
                                       static_cast<uint32_t>(s.shards)});
  }
  return error(Status::ProtocolViolation(
      std::string("unexpected reply-type frame ") +
      SweepFrameTypeName(SweepFrameTypeOf(request)) + " from a client"));
}

bool SweepService::drained() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->table->drained();
}

Status SweepService::run_status() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->table->run_status();
}

SweepStatusReply SweepService::Snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const ShardLeaseTable& table = *impl_->table;
  SweepServiceStats s = table.stats();
  SweepStatusReply reply;
  reply.sweep = table.info().sweep;
  reply.shards = static_cast<uint32_t>(s.shards);
  reply.committed = static_cast<uint32_t>(s.committed);
  reply.leased = static_cast<uint32_t>(s.leased);
  reply.pending = static_cast<uint32_t>(s.pending);
  reply.resumed = static_cast<uint32_t>(s.resumed);
  reply.retries = static_cast<uint32_t>(s.retries);
  reply.expired = static_cast<uint32_t>(s.expired);
  reply.quarantined = static_cast<uint32_t>(s.quarantined);
  reply.drained = table.drained() ? 1 : 0;
  return reply;
}

std::vector<int> SweepService::Attempts() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->table->attempts();
}

Status SweepService::WaitUntilDone() {
  Impl* impl = impl_.get();
  std::unique_lock<std::mutex> lock(impl->mu);
  impl->cv.wait(lock, [&] {
    return impl->stopping || impl->shutdown_requested ||
           impl->table->drained() || !impl->table->run_status().ok();
  });
  if (!impl->table->run_status().ok()) return impl->table->run_status();
  if (impl->table->drained()) return Status::OK();
  SweepServiceStats s = impl->table->stats();
  return Status::FailedPrecondition(
      std::string(impl->shutdown_requested ? "shutdown requested"
                                           : "service stopped") +
      " with " + std::to_string(s.committed) + " of " +
      std::to_string(s.shards) + " shards committed");
}

void SweepService::Stop() {
  Impl* impl = impl_.get();
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    if (impl->stopped) return;
    impl->stopping = true;
    impl->cv.notify_all();
  }
  if (impl->accept_thread.joinable()) impl->accept_thread.join();
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    for (int fd : impl->open_fds) ::shutdown(fd, SHUT_RDWR);
    handlers.swap(impl->handlers);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  if (impl->listen_fd >= 0) {
    ::close(impl->listen_fd);
    impl->listen_fd = -1;
  }
  std::lock_guard<std::mutex> lock(impl->mu);
  impl->stopped = true;
}

// ---------------------------------------------------------------------------
// SweepServiceClient
// ---------------------------------------------------------------------------

struct SweepServiceClient::Impl {
  int fd = -1;
  std::mutex mu;  // serializes RPCs on the shared connection
};

Result<std::unique_ptr<SweepServiceClient>> SweepServiceClient::Connect(
    const std::string& host, int port, int64_t timeout_ms) {
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("port must be in [1, 65535]");
  }
  if (timeout_ms < 1) {
    return Status::InvalidArgument("timeout_ms must be >= 1");
  }

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &found);
  if (rc != 0 || found == nullptr) {
    return Status::Internal("sweepd cannot resolve '" + host +
                            "': " + ::gai_strerror(rc));
  }

  int fd = -1;
  Status last = Status::Internal("sweepd connect failed: no addresses");
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(Errno("sweepd socket failed"));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Status::Internal("sweepd connect to " + host + ":" +
                            std::to_string(port) +
                            " failed: " + std::strerror(errno));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) return last;

  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto client = std::unique_ptr<SweepServiceClient>(new SweepServiceClient());
  client->impl_ = std::make_unique<Impl>();
  client->impl_->fd = fd;
  return client;
}

SweepServiceClient::~SweepServiceClient() {
  if (impl_ && impl_->fd >= 0) ::close(impl_->fd);
}

namespace {

// One blocking RPC: send the request frame, read exactly one reply
// frame, map `error` replies back to their daemon-side Status.
Result<SweepFrame> RoundTrip(int fd, std::mutex& mu, const SweepFrame& req) {
  std::lock_guard<std::mutex> lock(mu);
  HSIS_RETURN_IF_ERROR(WriteSweepFrame(fd, SerializeSweepFrame(req)));
  auto body = ReadSweepFrame(fd);
  if (!body.ok()) {
    if (body.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("sweepd closed the connection mid-RPC");
    }
    return body.status();
  }
  HSIS_ASSIGN_OR_RETURN(SweepFrame reply, ParseSweepFrame(*body));
  if (const auto* err = std::get_if<SweepErrorReply>(&reply)) {
    return FromSweepError(*err);
  }
  return reply;
}

template <typename T>
Result<T> Expect(Result<SweepFrame> reply, const char* rpc) {
  if (!reply.ok()) return reply.status();
  if (auto* typed = std::get_if<T>(&*reply)) return std::move(*typed);
  return Status::ProtocolViolation(
      std::string("unexpected ") +
      SweepFrameTypeName(SweepFrameTypeOf(*reply)) + " reply to " + rpc);
}

}  // namespace

Result<std::variant<SweepLeaseGrant, SweepNoWork>>
SweepServiceClient::RequestLease(const std::string& worker) {
  auto reply = RoundTrip(impl_->fd, impl_->mu,
                         SweepFrame(SweepLeaseRequest{worker}));
  if (!reply.ok()) return reply.status();
  // Assigned per branch and returned once: a temporary variant per
  // branch makes GCC 12 with ASan report the grant's fields as "may be
  // used uninitialized" on the no-work path (-Werror).
  std::variant<SweepLeaseGrant, SweepNoWork> lease;
  if (auto* grant = std::get_if<SweepLeaseGrant>(&*reply)) {
    lease = std::move(*grant);
  } else if (auto* none = std::get_if<SweepNoWork>(&*reply)) {
    lease = *none;
  } else {
    return Status::ProtocolViolation(
        std::string("unexpected ") +
        SweepFrameTypeName(SweepFrameTypeOf(*reply)) +
        " reply to lease-request");
  }
  return lease;
}

Result<SweepHeartbeatAck> SweepServiceClient::Heartbeat(uint64_t lease_id,
                                                        int shard) {
  return Expect<SweepHeartbeatAck>(
      RoundTrip(impl_->fd, impl_->mu,
                SweepFrame(SweepHeartbeat{lease_id,
                                          static_cast<uint32_t>(shard)})),
      "heartbeat");
}

Result<SweepCompleteAck> SweepServiceClient::Complete(
    uint64_t lease_id, int shard, const std::string& payload_sha256) {
  SweepComplete req;
  req.lease_id = lease_id;
  req.shard = static_cast<uint32_t>(shard);
  req.payload_sha256 = payload_sha256;
  return Expect<SweepCompleteAck>(
      RoundTrip(impl_->fd, impl_->mu, SweepFrame(req)), "complete");
}

Result<SweepFailAck> SweepServiceClient::ReportFailure(
    uint64_t lease_id, int shard, const std::string& message) {
  SweepFail req;
  req.lease_id = lease_id;
  req.shard = static_cast<uint32_t>(shard);
  req.message = message;
  return Expect<SweepFailAck>(
      RoundTrip(impl_->fd, impl_->mu, SweepFrame(req)), "fail");
}

Result<SweepStatusReply> SweepServiceClient::QueryStatus() {
  return Expect<SweepStatusReply>(
      RoundTrip(impl_->fd, impl_->mu, SweepFrame(SweepStatusRequest{})),
      "status-request");
}

Result<SweepShutdownAck> SweepServiceClient::RequestShutdown() {
  return Expect<SweepShutdownAck>(
      RoundTrip(impl_->fd, impl_->mu, SweepFrame(SweepShutdown{})),
      "shutdown");
}

}  // namespace hsis::common
