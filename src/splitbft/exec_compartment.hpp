// Execution compartment (paper §3.2, Figure 2 handlers 4, 8, 9).
//
// Holds the application state. Collects commit certificates (2f+1 Commits
// from distinct Confirmation enclaves), matches them with the full request
// batches duplicated into its input log, executes operations in sequence
// order, and answers clients with encrypted, authenticated replies.
// Also: session establishment (attestation + X25519 key provisioning),
// periodic checkpoints with snapshots, garbage collection, and encrypted
// state transfer between Execution enclaves.
#pragma once

#include <functional>
#include <unordered_map>

#include "apps/app.hpp"
#include "common/serde.hpp"
#include "pbft/client_directory.hpp"
#include "pbft/state_transfer.hpp"
#include "runtime/runner/runner.hpp"
#include "splitbft/compartment.hpp"
#include "tee/protected_fs.hpp"

namespace sbft::splitbft {

/// Persist hook handed to the application: blocks written through it are
/// encrypted + MAC-chained inside the enclave (protected FS) and then leave
/// through an ocall to untrusted storage — the paper's per-block cost.
using PersistHook = std::function<void(ByteView record)>;

/// App factory variant receiving the persist hook (the ledger uses it as
/// its BlockSink; the KVS ignores it).
using ExecAppFactory =
    std::function<std::unique_ptr<apps::Application>(PersistHook)>;

/// Adapts a plain AppFactory (apps that never persist).
[[nodiscard]] ExecAppFactory plain_app(apps::AppFactory factory);

class ExecCompartment final : public CompartmentLogic {
 public:
  /// `block_store` is the UNTRUSTED storage behind the protected FS; may be
  /// nullptr for apps that never persist.
  ///
  /// `runner` is the staged execution pipeline (in-enclave worker threads
  /// in a deployment): reply AEAD-seal/MAC and fast-path read service run
  /// as prologues while state mutations stay ordered. Defaults to the
  /// serial SyncOrderedRunner; always drained before deliver() returns.
  ExecCompartment(pbft::Config config, ReplicaId self,
                  std::shared_ptr<const crypto::Signer> signer,
                  std::shared_ptr<const crypto::Verifier> verifier,
                  pbft::ClientDirectory clients, ExecAppFactory app_factory,
                  crypto::Key32 exec_group_key, crypto::Key32 dh_secret,
                  crypto::Key32 fs_key = {},
                  tee::BlockStore* block_store = nullptr,
                  std::shared_ptr<runtime::runner::OrderedRunner> runner =
                      nullptr);

  [[nodiscard]] std::vector<net::Envelope> deliver(
      const net::Envelope& env) override;
  [[nodiscard]] Digest measurement() const override {
    return compartment_measurement(Compartment::Execution);
  }

  using QuoteFn = std::function<Bytes(ByteView report_data)>;
  void set_quote_fn(QuoteFn fn) { quote_fn_ = std::move(fn); }

  // Introspection (tests, safety checkers).
  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] SeqNum last_executed() const noexcept {
    return last_executed_;
  }
  [[nodiscard]] SeqNum last_stable() const noexcept {
    return checkpoints_.last_stable();
  }
  [[nodiscard]] const apps::Application& app() const noexcept { return *app_; }
  [[nodiscard]] std::uint64_t executed_requests() const noexcept {
    return executed_requests_;
  }
  /// Read-only requests served via the fast path (no sequence number, no
  /// Preparation/Confirmation involvement).
  [[nodiscard]] std::uint64_t reads_served() const noexcept {
    return reads_served_;
  }
  /// Client-record count (GC bounds tests).
  [[nodiscard]] std::size_t client_record_count() const noexcept {
    return client_records_.size();
  }
  /// Records still holding a cached reply body — what client_record_cap
  /// bounds (the at-most-once floor itself is never dropped).
  [[nodiscard]] std::size_t cached_reply_count() const noexcept {
    std::size_t n = 0;
    for (const auto& [client, record] : client_records_) {
      if (record.has_reply) ++n;
    }
    return n;
  }
  [[nodiscard]] const std::map<SeqNum, Digest>& execution_history()
      const noexcept {
    return executed_digests_;
  }
  [[nodiscard]] bool has_session(ClientId c) const {
    return sessions_.contains(c);
  }
  [[nodiscard]] const net::VerifyCache& auth() const noexcept { return auth_; }
  /// Runner-pipeline memory (the splitbft half of the GC bounds tests):
  /// both must read 0 between deliver() calls, even under overload.
  [[nodiscard]] std::size_t runner_queue() const noexcept {
    return runner_->queue_depth();
  }
  [[nodiscard]] std::size_t staged_replies() const noexcept {
    return staged_out_.size();
  }
  /// Staged-pipeline observability (queue gauge + stage latencies).
  [[nodiscard]] runtime::runner::RunnerStats runner_stats() const {
    return runner_->stats();
  }
  /// State-transfer traffic counters (both roles, live transfer folded in).
  [[nodiscard]] pbft::StateTransferStats state_transfer_stats() const;
  /// StateRequest broadcasts actually sent (backoff-limited).
  [[nodiscard]] std::uint64_t state_requests_sent() const noexcept {
    return xfer_stats_.state_requests_sent;
  }
  /// True while recovering via state transfer (execution is paused).
  [[nodiscard]] bool awaiting_state() const noexcept {
    return awaiting_state_;
  }

  /// Out-of-band session provisioning: installs a pre-established client
  /// session key, as a deployment would after offline attestation. The
  /// benchmark harness uses this to skip the per-client handshake, exactly
  /// like the paper's measurements which attest once before the runs.
  void install_session(ClientId client, const crypto::Key32& key) {
    sessions_[client] = key;
  }

 private:
  struct Slot {
    // Commit votes keyed by sender: (view, digest) they vote for.
    std::map<ReplicaId, std::pair<std::pair<View, Digest>, net::Envelope>>
        commits;
    // Full batches keyed by digest (from duplicated PrePrepares).
    std::map<Digest, Bytes> batches;
    std::optional<Digest> committed_digest;
  };

  // Client table entries cache the PLAINTEXT result: ciphertexts are
  // replica-specific (per-replica reply nonces), so only plaintext state is
  // deterministic across replicas and may enter the checkpoint digest.
  // Replies are re-encrypted deterministically on retransmission.
  struct ClientRecord {
    Timestamp last_ts{0};
    Bytes last_result;  // plaintext result
    bool no_op{false};
    bool has_reply{false};
  };

  using Out = std::vector<net::Envelope>;

  /// Up to kRepliesPerUnit replies of one executed batch, staged as ONE
  /// runner unit. The unit owns copies of its inputs; every plaintext
  /// result sits in one arena.
  struct ReplyUnit {
    struct Entry {
      ClientId client{0};
      Timestamp ts{0};
      bool no_op{false};
      std::uint32_t offset{0};  // of the plaintext in `results`
      std::uint32_t size{0};
    };
    std::vector<Entry> entries;
    Bytes results;
  };
  static constexpr std::size_t kRepliesPerUnit = 32;

  void on_pre_prepare(const net::Envelope& env);
  void on_read_request(const net::Envelope& env, Out& out);
  void on_read_batch(const net::Envelope& env, Out& out);
  /// Serves one authenticated read-only request against last-executed
  /// state (shared by the single-read and coalesced-batch entry points).
  void serve_read(const pbft::RequestView& req, Out& out);
  void on_commit(const net::Envelope& env, Out& out);
  void on_checkpoint(const net::Envelope& env, Out& out);
  void on_new_view(const net::Envelope& env, Out& out);
  void on_attest_request(const net::Envelope& env, Out& out);
  void on_session_init(const net::Envelope& env, Out& out);
  void on_state_request(const net::Envelope& env, Out& out);
  void on_state_response(const net::Envelope& env, Out& out);
  void on_state_chunk_request(const net::Envelope& env, Out& out);
  void on_state_chunk_response(const net::Envelope& env, Out& out);
  /// Broker-forwarded clock tick (LocalMsg::StateTick): pumps chunk
  /// re-request timeouts and the StateRequest re-broadcast backoff.
  void on_state_tick(const net::Envelope& env, Out& out);

  void try_execute(Out& out);
  void execute_request(const pbft::RequestView& req, Out& out);
  /// Adds one client reply to the pending unit, copying the record's
  /// inputs (the record itself may be stripped by gc_client_records before
  /// the unit runs).
  void stage_client_reply(ClientId client, Timestamp ts,
                          const ClientRecord& record);
  /// Submits the pending replies as one runner unit that seals, MACs and
  /// encodes each of them.
  void submit_replies();
  /// Drains the runner and appends staged envelopes to `out` — the last
  /// step of deliver().
  void flush_runner(Out& out);
  void maybe_checkpoint(SeqNum seq, Out& out);
  /// Deterministic reply-body stripping keeping the cache under
  /// Config::client_record_cap (see pbft::strip_reply_cache).
  void gc_client_records();
  void garbage_collect(SeqNum stable);
  /// Starts (or retargets) recovery toward stable checkpoint `seq`.
  void request_state(SeqNum seq, Out& out);
  void begin_state_fetch(SeqNum seq, Out& out);
  /// Rate-limited StateRequest broadcast to peer Execution enclaves.
  void send_state_request(Out& out);
  void emit_chunk_requests(
      const std::vector<pbft::ChunkFetcher::Request>& requests, Out& out);
  void drain_fetcher(Out& out);
  void finish_streaming_restore(Out& out);
  void abandon_transfer();
  /// Folds a finished/discarded fetcher's counters into xfer_stats_.
  void accumulate_fetcher_stats();
  /// Per-checkpoint chunk sealing key: chunks cross the untrusted
  /// environment AEAD-sealed under a key derived from the Execution group
  /// key and `seq`, nonce = (kStateChunk, chunk index) — unique per
  /// (key, nonce) even across checkpoints.
  [[nodiscard]] crypto::Key32 chunk_seal_key(SeqNum seq) const;
  [[nodiscard]] Bytes seal_chunk(SeqNum seq, std::uint64_t index,
                                 ByteView chunk) const;
  [[nodiscard]] std::optional<Bytes> open_chunk(SeqNum seq,
                                                std::uint64_t index,
                                                ByteView sealed) const;
  /// Parses the client-record table (the protocol tail of exec_snapshot).
  [[nodiscard]] bool parse_client_records(
      Reader& r, std::unordered_map<ClientId, ClientRecord>& records) const;

  [[nodiscard]] Bytes exec_snapshot() const;
  [[nodiscard]] bool restore_exec_snapshot(ByteView data);
  [[nodiscard]] bool in_window(SeqNum seq) const noexcept;
  /// Builds the (deterministically encrypted) reply to `client` at `ts`
  /// for a plaintext `result`, in one payload buffer.
  [[nodiscard]] net::Envelope reply_envelope(ClientId client, Timestamp ts,
                                             bool no_op,
                                             ByteView result) const;

  pbft::Config config_;
  ReplicaId self_;
  std::shared_ptr<const crypto::Signer> signer_;
  net::VerifyCache auth_;
  pbft::ClientDirectory clients_;
  crypto::Key32 exec_group_key_;
  crypto::Key32 dh_secret_;
  crypto::Key32 dh_public_;
  std::optional<tee::ProtectedFile> protected_file_;
  std::unique_ptr<apps::Application> app_;
  QuoteFn quote_fn_;
  // Staged pipeline: prologues may only touch captured copies, the
  // thread-safe clients_ key cache, and const app reads; epilogues run in
  // submission order on the ecall thread, pushing into staged_out_.
  std::shared_ptr<runtime::runner::OrderedRunner> runner_;
  Out staged_out_;
  ReplyUnit pending_replies_;
  // Decrypted operation of the request being executed (ecall thread only),
  // reused so opening a request allocates only to grow.
  Bytes operation_;

  View view_{0};
  SeqNum last_executed_{0};
  /// Input log in_exec.
  std::map<SeqNum, Slot> log_;
  CheckpointCollector checkpoints_;
  std::map<SeqNum, pbft::ChunkedSnapshot> snapshots_;

  std::unordered_map<ClientId, crypto::Key32> sessions_;
  std::unordered_map<ClientId, ClientRecord> client_records_;

  bool awaiting_state_{false};
  SeqNum awaited_state_seq_{0};
  // One-shot startup probe: a rebooted enclave cannot learn the group
  // moved past it until a fresh checkpoint certificate happens to arrive —
  // ask once; any Execution peer ahead answers with its stable
  // certificate (the announce), which request_state turns into a fetch.
  bool boot_probe_sent_{false};
  // Snapshot retention: snapshots at or above retain_floor_ (the stable
  // seq BEFORE the latest one) survive garbage collection — one
  // checkpoint interval of serving hysteresis for peers mid-fetch. A
  // fetch whose target drops below the floor is the one case worth
  // retargeting.
  SeqNum retain_floor_{0};
  SeqNum gc_stable_{0};  // latest stable seq garbage_collect ran at
  // Streaming fetch machinery (non-null only while recovering). The clock
  // is the broker's: now_ advances on every StateTick delivery.
  std::unique_ptr<pbft::ChunkFetcher> fetcher_;
  std::unique_ptr<pbft::SnapshotApplier> applier_;
  Micros now_{0};
  Micros state_request_deadline_{0};  // 0 = not armed
  Micros state_request_backoff_{0};   // current interval
  pbft::StateTransferStats xfer_stats_;

  std::map<SeqNum, Digest> executed_digests_;
  std::uint64_t executed_requests_{0};
  std::uint64_t reads_served_{0};
  Digest null_batch_digest_;
};

}  // namespace sbft::splitbft
