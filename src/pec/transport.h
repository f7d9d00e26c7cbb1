// The transport seam of the distributed sharded-PEC driver: one interface
// over "a channel that carries shard jobs out and shard results back", with
// two implementations —
//
//   - PipeTransport: fork/exec a pec_worker child and frame over its
//     stdin/stdout pipes (the original, PR-6 shape; bitwise-untouched);
//   - TcpTransport: connect to an already-running `pec_worker --listen`
//     daemon, re-handshake the driver session (wire::Hello/kHelloAck), and
//     frame over the socket — PEC as a service.
//
// The supervisor (src/pec/supervisor.h) is transport-blind: it deals jobs,
// enforces deadlines, and on any fault discards the Transport and asks its
// factory for a fresh one. For pipes that is a respawn; for TCP it is a
// reconnect — and because a reconnecting client re-sends the same session
// tag and the same per-job sequence numbers, a daemon that already solved a
// re-sent job replays the cached result frame instead of solving twice
// (and a cache miss just re-solves the pure job to bitwise-identical doses).
//
// The failure surface is normalized to the pipe transport's: every method
// throws DataError for a broken/corrupt channel and TimeoutError for a
// deadline, so the supervisor's crash/hang/corruption handling needs no
// transport-specific cases.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/net.h"
#include "util/subprocess.h"

namespace ebl {

namespace wire {
struct ShardJob;
struct Frame;
}  // namespace wire

/// $EBL_HEARTBEAT_MS: deadline for the TCP handshake and for each liveness
/// ping (kPing -> kPong round trip on an otherwise quiet stream). Default
/// 2000 ms.
double resolve_heartbeat_ms();
/// $EBL_CONNECT_TIMEOUT_MS: deadline for establishing a TCP connection to a
/// worker daemon. Default 5000 ms.
double resolve_connect_timeout_ms();

/// One supervised worker channel. Thread contract (mirrors the supervisor's
/// writer/reader pair): send_job and finish_jobs belong to the writer
/// thread; read_result to the reader thread; unblock_writer may be called
/// from the reader thread while the writer is mid-send (that is its job);
/// poll_fault / drain / hard_stop only with no attempt threads running.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Serializes and sends one job. @p deadline bounds the send on
  /// deadline-capable channels (TCP: a daemon that stops draining its
  /// receive window is a hung peer); the pipe transport ignores it — a
  /// stalled pipe write is broken by the paired reader's deadline killing
  /// the worker (EPIPE), exactly as before the seam.
  virtual void send_job(const wire::ShardJob& job,
                        std::chrono::steady_clock::time_point deadline) = 0;

  /// Reads the next frame off the result stream. Returns false on clean EOF
  /// at a frame boundary; throws TimeoutError past @p deadline, DataError on
  /// corruption. The caller checks the frame type (a daemon's stream may
  /// legitimately carry kPong frames only via poll_fault, never here).
  virtual bool read_result(wire::Frame* out,
                           std::chrono::steady_clock::time_point deadline) = 0;

  /// Writer-side half-close: no more jobs will be sent. A healthy worker
  /// finishes its queue and ends the stream (pipe: EOF on stdin -> worker
  /// exits; TCP: shutdown(SHUT_WR) -> daemon ends the session). Also the
  /// writer thread's own failure epilogue — it unblocks the paired reader.
  virtual void finish_jobs() = 0;

  /// Reader-side failure epilogue: break a writer blocked mid-send (pipe:
  /// SIGKILL the worker so the pipe EPIPEs; TCP: shutdown both directions).
  /// Safe from the reader thread while the writer is inside send_job.
  virtual void unblock_writer() = 0;

  /// Between-batches liveness probe (the stream must be quiet). Returns true
  /// and fills @p why when the channel is dead: a pipe worker that exited,
  /// a daemon that fails a kPing -> kPong round trip within the heartbeat
  /// deadline. Never throws — a probe failure IS the answer.
  virtual bool poll_fault(std::string* why) = 0;

  /// Orderly shutdown after finish_jobs: give the worker until @p deadline
  /// to end the stream cleanly. Returns an empty string for a clean end, a
  /// diagnostic otherwise (logged, never thrown — all results were already
  /// delivered and CRC-checked by then). The channel is dead afterwards.
  virtual std::string drain(std::chrono::steady_clock::time_point deadline) = 0;

  /// Error-path teardown: kill/close everything immediately.
  virtual void hard_stop() = 0;

  /// Human-readable channel identity for fault logs ("pid 1234",
  /// "daemon at host:9000").
  virtual std::string describe() const = 0;
};

/// Builds the Transport for worker slot @p slot. Called by the supervisor at
/// construction (one per slot) and again on every restart/reconnect; must
/// throw (DataError/TimeoutError) when the channel cannot be established —
/// the supervisor charges the failure against the slot's restart budget and
/// retries with backoff, so a daemon that is briefly unreachable costs
/// budget but not the solve.
using TransportFactory = std::function<std::unique_ptr<Transport>(std::size_t slot)>;

/// Fork/exec transport: every call spawns a fresh @p argv child (cold
/// resident pool — a cold solve_shard_job entry rebuilds everything from the
/// job, which is exact).
TransportFactory make_pipe_transport_factory(std::vector<std::string> argv);

/// PEC-as-a-service transport: slot i connects to hosts[i % hosts.size()]
/// and re-handshakes @p session_id (wire Hello). Point each slot at a
/// distinct daemon — a daemon serves sessions sequentially, so two slots on
/// one address would serialize. Connect/handshake deadlines come from
/// resolve_connect_timeout_ms / resolve_heartbeat_ms, read once here.
TransportFactory make_tcp_transport_factory(std::vector<net::HostPort> hosts,
                                            std::uint64_t session_id);

}  // namespace ebl
