// PBFT replica engine (the paper's baseline system).
//
// Sans-I/O design: the engine consumes envelopes and timer ticks and returns
// envelopes to transmit. It never touches sockets, threads or clocks, so the
// identical engine runs under the deterministic simulator (correctness
// tests), the virtual-time performance model (benchmarks) and the threaded
// runtime (examples).
//
// Implements the complete protocol: request batching, the three-phase
// normal case, reply caching / at-most-once execution, periodic
// checkpointing with garbage collection, view change + new view, and
// checkpoint-proof-validated state transfer for lagging replicas.
//
// All signature checks go through a net::VerifyCache, and every stored
// quorum message (pre-prepares, prepare/commit votes, checkpoint and
// view-change certificates) is held as a net::VerifiedEnvelope — proof of
// verification travels in the type system, and re-validating proofs that
// embed already-seen envelopes costs a cache hit instead of an Ed25519
// verification.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "apps/app.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"
#include "crypto/keyring.hpp"
#include "net/auth.hpp"
#include "net/message.hpp"
#include "pbft/client_directory.hpp"
#include "pbft/config.hpp"
#include "pbft/messages.hpp"
#include "pbft/state_transfer.hpp"
#include "runtime/runner/runner.hpp"
#include "runtime/runner/tuning.hpp"

namespace sbft::pbft {

class Replica {
 public:
  /// `auth` (optional) is the signature-verification cache; pass the cache
  /// a ThreadNetwork ingress VerifierPool shares so envelopes pre-verified
  /// at the transport are cache hits here (verify once per replica).
  /// Defaults to a private cache over `verifier`.
  ///
  /// `runner` (optional) is the staged execution pipeline: reply
  /// MAC/serialize and fast-path read service run as prologues on its
  /// workers while state mutations stay ordered on the engine thread.
  /// Defaults to the serial SyncOrderedRunner. Always drained before
  /// handle()/tick() returns, preserving the sans-I/O contract.
  Replica(Config config, ReplicaId id,
          std::shared_ptr<const crypto::Signer> signer,
          std::shared_ptr<const crypto::Verifier> verifier,
          ClientDirectory clients, apps::AppFactory app_factory,
          std::shared_ptr<net::VerifyCache> auth = nullptr,
          std::shared_ptr<runtime::runner::OrderedRunner> runner = nullptr);

  /// Processes one incoming envelope; returns envelopes to transmit.
  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now);

  /// Fires any expired timers (batch cut, view change).
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now);

  /// Earliest pending timer deadline, if any.
  [[nodiscard]] std::optional<Micros> next_deadline() const;

  // ---- introspection (tests, benchmarks, safety checkers) ----
  [[nodiscard]] ReplicaId id() const noexcept { return id_; }
  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] bool in_view_change() const noexcept { return in_view_change_; }
  [[nodiscard]] SeqNum last_executed() const noexcept { return last_executed_; }
  [[nodiscard]] SeqNum last_stable() const noexcept { return last_stable_; }
  [[nodiscard]] const apps::Application& app() const noexcept { return *app_; }
  [[nodiscard]] std::uint64_t executed_requests() const noexcept {
    return executed_requests_;
  }
  /// Read-only requests served via the fast path (no sequence number).
  [[nodiscard]] std::uint64_t reads_served() const noexcept {
    return reads_served_;
  }
  /// Batch digest executed at `seq` (zero digest if not executed) — the
  /// cross-replica agreement checker compares these.
  [[nodiscard]] Digest executed_digest(SeqNum seq) const;
  [[nodiscard]] const std::map<SeqNum, Digest>& execution_history()
      const noexcept {
    return executed_digests_;
  }
  /// Signature-verification cache (hit/miss counters for tests and the
  /// performance model).
  [[nodiscard]] const net::VerifyCache& auth() const noexcept {
    return *auth_;
  }
  /// Fresh requests shed by admission control (Config::admission_queue_cap).
  [[nodiscard]] std::uint64_t admission_rejects() const noexcept {
    return admission_rejects_;
  }
  /// State-transfer traffic counters (see pbft/state_transfer.hpp).
  using StateTransferStats = ::sbft::pbft::StateTransferStats;
  [[nodiscard]] StateTransferStats state_transfer_stats() const;
  /// StateRequest broadcasts actually sent (backoff-limited) — the
  /// regression counter for the re-broadcast storm fix.
  [[nodiscard]] std::uint64_t state_requests_sent() const noexcept {
    return xfer_stats_.state_requests_sent;
  }
  /// True while recovering via state transfer (execution is paused).
  [[nodiscard]] bool awaiting_state() const noexcept {
    return awaiting_state_;
  }
  /// Staged-pipeline observability (queue gauge + stage latencies).
  [[nodiscard]] runtime::runner::RunnerStats runner_stats() const {
    return runner_->stats();
  }
  /// Live view of the (possibly auto-tuned) protocol knobs.
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const runtime::runner::AutoTuner* tuner() const noexcept {
    return tuner_.get();
  }

  /// Bookkeeping footprint, for garbage-collection bounds tests: after a
  /// checkpoint stabilizes, every seq-keyed structure must hold nothing at
  /// or below last_stable(), and view-change bookkeeping nothing at or
  /// below view().
  struct GcFootprint {
    std::size_t log_slots{0};
    SeqNum min_log_seq{0};  // 0 when the log is empty
    std::size_t checkpoint_seqs{0};
    SeqNum min_checkpoint_seq{0};  // 0 when no pending certificates
    std::size_t snapshots{0};
    SeqNum min_snapshot_seq{0};  // 0 when none retained
    std::size_t view_change_views{0};
    View min_view_change_view{0};  // 0 when none retained
    std::size_t new_view_markers{0};
    std::size_t pending_requests{0};
    std::size_t client_records{0};
    /// Records still holding a cached reply body — the quantity
    /// Config::client_record_cap bounds (records themselves are only
    /// stripped, never erased, preserving the at-most-once floor).
    std::size_t cached_replies{0};
    /// Runner-pipeline memory: work units in the staged runner and reply
    /// envelopes awaiting flush. Both are drained before handle()/tick()
    /// returns, so they must read 0 between engine calls — even under
    /// sustained overload.
    std::size_t runner_queue{0};
    std::size_t staged_replies{0};
  };
  [[nodiscard]] GcFootprint gc_footprint() const;

 private:
  struct Slot {
    std::optional<PrePrepare> pre_prepare;
    std::optional<net::VerifiedEnvelope> pre_prepare_env;
    // pre_prepare->batch as cut_batch or on_pre_prepare already parsed it,
    // so execution does not parse it again; dropped once executed.
    std::optional<RequestBatch> batch;
    // Votes keyed by sender, with the digest each vote is for.
    std::map<ReplicaId, std::pair<Digest, net::VerifiedEnvelope>> prepares;
    std::map<ReplicaId, std::pair<Digest, net::VerifiedEnvelope>> commits;
    bool prepared{false};
    bool committed{false};
  };

  struct ClientRecord {
    Timestamp last_ts{0};
    Bytes last_result;
    View last_view{0};
    bool has_reply{false};
  };

  using Out = std::vector<net::Envelope>;

  // -- event handlers --
  void on_request(const net::Envelope& env, Micros now, Out& out);
  void on_read_request(const net::Envelope& env, Micros now, Out& out);
  void on_pre_prepare(const net::Envelope& env, Micros now, Out& out);
  void on_prepare(const net::Envelope& env, Micros now, Out& out);
  void on_commit(const net::Envelope& env, Micros now, Out& out);
  void on_checkpoint(const net::Envelope& env, Micros now, Out& out);
  void on_view_change(const net::Envelope& env, Micros now, Out& out);
  void on_new_view(const net::Envelope& env, Micros now, Out& out);
  void on_state_request(const net::Envelope& env, Out& out);
  void on_state_response(const net::Envelope& env, Micros now, Out& out);
  void on_state_chunk_request(const net::Envelope& env, Out& out);
  void on_state_chunk_response(const net::Envelope& env, Micros now, Out& out);

  // -- streaming state transfer (fetch side) --
  /// Starts (or retargets) recovery toward stable checkpoint `seq`, whose
  /// certificate is already in stable_proof_.
  void begin_state_fetch(SeqNum seq, Micros now, Out& out);
  /// Signs and emits StateChunkRequest envelopes planned by the fetcher.
  void emit_chunk_requests(const std::vector<ChunkFetcher::Request>& requests,
                           Out& out);
  /// Streams newly contiguous verified chunks into the applier; finishes
  /// the restore when the fetch completes.
  void drain_fetcher(Micros now, Out& out);
  void finish_streaming_restore(Micros now, Out& out);
  /// Tears down a wedged transfer and re-arms the StateRequest backoff so
  /// recovery restarts from a fresh announce.
  void abandon_transfer(Micros now);
  /// Broadcasts one StateRequest and arms the exponential-backoff timer
  /// (satellite fix: no more unbounded re-broadcast storms).
  void send_state_request(Micros now, Out& out);
  /// Folds a finished/discarded fetcher's counters into xfer_stats_.
  void accumulate_fetcher_stats();
  /// Parses the protocol tail (client-record table) of a snapshot.
  [[nodiscard]] bool parse_client_records(
      Reader& r, std::unordered_map<ClientId, ClientRecord>& records) const;

  // -- normal operation helpers --
  void cut_batch(Micros now, Out& out);
  void check_prepared(SeqNum seq, Micros now, Out& out);
  void check_committed(SeqNum seq, Micros now, Out& out);
  void try_execute(Micros now, Out& out);
  void execute_batch(SeqNum seq, const RequestBatch& batch, Micros now,
                     Out& out);
  void maybe_checkpoint(SeqNum seq, Micros now, Out& out);
  /// Deterministic stripping keeping cached reply bodies under
  /// Config::client_record_cap. Runs only at execution points, so every
  /// replica prunes the identical set and checkpoint digests stay aligned.
  void gc_client_records();
  void process_own_checkpoint(SeqNum seq, const net::Envelope& env, Micros now,
                              Out& out);
  void make_stable(SeqNum seq, std::vector<net::VerifiedEnvelope> proof,
                   Micros now, Out& out);

  // -- view change helpers --
  void start_view_change(View target, Micros now, Out& out);
  void maybe_send_new_view(View target, Micros now, Out& out);
  void enter_view(View v,
                  const std::vector<net::VerifiedEnvelope>& new_pre_prepares,
                  SeqNum min_s, Micros now, Out& out);
  /// Collects the verified, sender-deduplicated subset of a checkpoint
  /// certificate for `seq` (cache hits when the quorum was already
  /// established). With no `expected_digest` the digest latches to the
  /// first verifying entry; with one, only matching entries count.
  [[nodiscard]] std::vector<net::VerifiedEnvelope> verified_checkpoint_proof(
      const std::vector<net::Envelope>& proof, SeqNum seq,
      std::optional<Digest> expected_digest = std::nullopt) const;
  /// Returns the verified envelope (for storing in view_changes_) on
  /// success, filling `out_vc` with the parsed message.
  [[nodiscard]] std::optional<net::VerifiedEnvelope> validate_view_change(
      const net::Envelope& env, ViewChange& out_vc) const;
  [[nodiscard]] bool validate_prepared_proof(const PreparedProof& proof,
                                             SeqNum& seq, View& view,
                                             Digest& digest,
                                             Bytes& batch) const;

  struct NewViewPlan {
    SeqNum min_s{0};
    SeqNum max_s{0};
    // seq -> (digest, batch bytes) to re-propose.
    std::map<SeqNum, std::pair<Digest, Bytes>> proposals;
  };
  [[nodiscard]] std::optional<NewViewPlan> compute_new_view_plan(
      const std::vector<net::Envelope>& view_change_envs) const;

  // -- state snapshot (app + client table, checkpointed together) --
  [[nodiscard]] Bytes protocol_snapshot() const;
  [[nodiscard]] bool restore_protocol_snapshot(ByteView data);
  [[nodiscard]] Digest snapshot_digest(ByteView snapshot) const;

  // -- plumbing --
  /// Builds and signs an envelope around a payload frame. The frame is
  /// moved, not copied — callers serialize a message body exactly once and
  /// every copy of the envelope shares that one allocation.
  [[nodiscard]] net::Envelope make_signed(MsgType type, SharedBytes payload,
                                          principal::Id dst) const;
  void broadcast(MsgType type, SharedBytes payload, Out& out) const;
  /// Addresses a copy of an already-signed envelope to every other replica.
  /// Copies are frame-backed: O(1) refcount bumps per recipient, no payload
  /// duplication.
  void broadcast_env(const net::Envelope& env, Out& out) const;
  [[nodiscard]] bool in_window(SeqNum seq) const noexcept;
  /// Batches assigned a sequence number but not yet executed locally —
  /// the quantity Config::pipeline_depth bounds on the primary.
  [[nodiscard]] SeqNum in_flight_batches() const noexcept;
  [[nodiscard]] bool is_primary() const noexcept {
    return config_.primary(view_) == id_;
  }
  [[nodiscard]] Slot& slot(SeqNum seq) { return log_[seq]; }
  void update_request_timer(Micros now);
  /// Stages the build/MAC/serialize of one reply on the runner; the
  /// epilogue queues the envelope on staged_out_ in submission order.
  void stage_reply(ClientId client, Timestamp ts, View view, Bytes result);
  /// Drains the runner and appends staged envelopes to `out` — the last
  /// step of handle()/tick(), restoring the sans-I/O contract.
  void flush_runner(Out& out);
  /// Feeds the AutoTuner (when Config::auto_tune) and applies knob changes.
  void observe_tuner(Micros now);

  Config config_;
  ReplicaId id_;
  std::shared_ptr<const crypto::Signer> signer_;
  // Possibly shared with the transport's ingress VerifierPool.
  std::shared_ptr<net::VerifyCache> auth_;
  ClientDirectory clients_;
  std::unique_ptr<apps::Application> app_;
  // Staged pipeline: prologues run on runner workers and may only touch
  // captured copies plus the thread-safe clients_ key cache; epilogues run
  // in submission order on the engine thread, pushing into staged_out_.
  std::shared_ptr<runtime::runner::OrderedRunner> runner_;
  std::unique_ptr<runtime::runner::AutoTuner> tuner_;
  Out staged_out_;

  View view_{0};
  SeqNum next_seq_{0};      // last assigned (primary)
  SeqNum last_executed_{0};
  SeqNum last_stable_{0};
  std::map<SeqNum, Slot> log_;

  // Checkpoints: seq -> digest -> (sender -> verified envelope).
  std::map<SeqNum,
           std::map<Digest, std::map<ReplicaId, net::VerifiedEnvelope>>>
      checkpoints_;
  // Own snapshots (pending + stable), pre-chunked under the Merkle
  // commitment their checkpoint certificates sign.
  std::map<SeqNum, ChunkedSnapshot> snapshots_;
  std::vector<net::VerifiedEnvelope> stable_proof_;

  std::unordered_map<ClientId, ClientRecord> client_records_;
  std::map<std::pair<ClientId, Timestamp>, Request> pending_requests_;
  // First-arrival times of pending requests, in arrival order, pruned
  // lazily: the front entry still present in pending_requests_ is the
  // oldest starving request and anchors the suspicion deadline.
  std::deque<std::pair<Micros, std::pair<ClientId, Timestamp>>>
      pending_arrivals_;
  Micros batch_deadline_{0};       // 0 = no batch pending
  Micros request_timer_{0};        // 0 = not armed
  Micros view_change_timer_{0};    // 0 = not armed
  // True when cut_batch was held back by the watermark window or the
  // pipeline depth; execution/stability progress retries the cut.
  bool batch_gated_{false};

  bool in_view_change_{false};
  View pending_view_{0};
  // view -> sender -> validated ViewChange envelope.
  std::map<View, std::map<ReplicaId, net::VerifiedEnvelope>> view_changes_;
  std::map<View, bool> new_view_sent_;

  bool awaiting_state_{false};
  SeqNum awaited_state_seq_{0};
  // One-shot startup probe: a rebooted replica has no way to learn the
  // group moved past it until a fresh checkpoint certificate happens to
  // arrive — ask once; any peer ahead answers with its stable certificate
  // (the announce), which make_stable turns into a fetch.
  bool boot_probe_sent_{false};
  // Streaming fetch machinery (non-null only while recovering).
  std::unique_ptr<ChunkFetcher> fetcher_;
  std::unique_ptr<SnapshotApplier> applier_;
  // StateRequest re-broadcast rate limiting (satellite fix): one timer,
  // exponential backoff between config_.state_request_backoff_min/max.
  Micros state_request_timer_{0};    // 0 = not armed
  Micros state_request_backoff_{0};  // current interval
  StateTransferStats xfer_stats_;

  std::map<SeqNum, Digest> executed_digests_;
  std::uint64_t executed_requests_{0};
  std::uint64_t reads_served_{0};
  std::uint64_t admission_rejects_{0};
};

}  // namespace sbft::pbft
