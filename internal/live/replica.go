// Replica: the live replicated-state-machine service. Each replica knows
// only its own submissions, so the layer splits replication into the two
// classic halves:
//
//   - Dissemination: a proposer packs its pending commands into a BATCH,
//     assigns it an id that is unique by construction ((proposer+1) in
//     the high bits, a local counter below — no hashing, no collisions),
//     and broadcasts the contents best-effort. Batches are re-pulled on
//     demand, so dissemination only needs fair-lossy links.
//   - Agreement: each slot runs one core.Instance (LastVoting, OTR, …)
//     whose proposals are batch IDS (they fit core.Value). A replica
//     with nothing to propose adopts the newest batch it has heard of,
//     or proposes 0, the no-op batch. Deciding an id whose contents have
//     not arrived yet just delays APPLY, never agreement.
//
// Commands carry (client, seq) session identities; apply keeps a
// high-water mark per client, so overlapping batches (a retried command
// landing in two proposals) still apply exactly once.
//
// Decided slots spread through a sync protocol that doubles as the
// decide-retransmission and the crash-rejoin path: any round message for
// an old slot reveals a laggard, and any for a future slot reveals that
// WE lag; both trigger a (rate-limited) push or pull of the decision
// log. A replica paused mid-round therefore rejoins by replaying
// decisions, not consensus.
//
// ALL of the above is protocol logic, and none of it lives in this
// file: it is ReplicaCore (replicacore.go), a pure step function that
// the exhaustive model checker (internal/modelcheck) explores directly.
// Replica is the production SHELL around that core — one event-loop
// goroutine that turns transport deliveries, round-timeout fires, pull
// retries, and heartbeat ticks into core events, transmits the
// envelopes each step returns (rate-limiting targeted sync traffic),
// runs the Apply hook for committed entries, and resolves submitter
// waiters. Time, goroutines, and channels stop at this boundary.
//
// Fault envelope: transmission faults of any rate and crash-RECOVERY
// are fully handled — with a Persister configured, kill -9 included:
// the wal package is the paper's stable storage, the sync-before-send
// barrier in dispatch makes every externally visible fact durable
// first, and a restarted replica reloads snapshot+log (locked votes,
// decisions, dedup high-water marks, batch contents) and rejoins via
// the ordinary sync path. The PR-5 dissemination-window stall is
// closed for that model: a proposer's batch body is on its own disk
// before the id is proposed, so a recovered proposer always serves the
// pull (the model checker's CheckStallRecovery probe proves it).
// Permanent crash-STOP of a proposer — machine gone, disk gone — in
// the window after its batch id was decided but before its contents
// reached any other replica still loses the only copy, and apply for
// that slot waits (pulling) until a holder returns — the same way any
// log-based system stalls on losing committed-but-unreplicated data;
// the CheckStall probe keeps that residual limitation documented and
// tested. Volatile (Persister-less) replicas keep the pre-durability
// envelope: pause/rejoin recovers, restart is data loss.

package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"heardof/internal/core"
	"heardof/internal/wal"
)

// Entry is one replicated command with its client-session identity.
type Entry[C any] struct {
	Client uint64
	Seq    uint64
	Cmd    C
}

// BatchCodec serializes command batches for dissemination.
type BatchCodec[C any] interface {
	// AppendEntries encodes entries after dst.
	AppendEntries(dst []byte, entries []Entry[C]) []byte
	// DecodeEntries parses an AppendEntries encoding. It runs on raw
	// network input, so implementations must validate before they
	// allocate — in particular, bound the entry count before sizing a
	// slice from it (a hostile header otherwise turns a few bytes into
	// a giant allocation).
	DecodeEntries(src []byte) ([]Entry[C], error)
}

// ApplyResult reports the fate of a submitted command to its waiter.
type ApplyResult struct {
	// Slot is the consensus slot that committed the command.
	Slot uint64
	// Out is whatever the Apply hook returned (e.g. the value a
	// linearizable read observed at apply time).
	Out any
	// Dup marks a submission whose sequence number was already applied.
	Dup bool
}

// ReplicaStats are one replica's service counters. Live runs are not
// deterministic, so these are measurements, not reproducible tables.
type ReplicaStats struct {
	// Applied is the commit index: slots applied so far.
	Applied uint64
	// Committed counts commands applied (exactly-once, after dedup).
	Committed int
	// Divergent counts conflicting decision observations for one slot.
	// Consensus safety says it stays 0; the live smoke jobs assert it.
	Divergent int
	// SyncDecisions counts slots learned through the sync path instead
	// of this replica's own consensus instance.
	SyncDecisions int
	// Rounds accumulates consensus rounds executed by this replica.
	Rounds int64
	// Pending counts accepted-but-uncommitted local submissions.
	Pending int
	// BatchesHeld counts disseminated batches currently retained.
	// Batches of slots every replica has applied are pruned, so on a
	// healthy cluster this stays near the in-flight window instead of
	// growing with history.
	BatchesHeld int
	// Malformed counts undecodable inbound payloads (dropped).
	Malformed int
}

// ReplicaConfig parameterizes one process's replica of one group.
type ReplicaConfig[C any] struct {
	// Self and N identify this process within the group's n processes.
	Self core.ProcessID
	N    int
	// Algorithm decides each slot; Msg is its wire codec.
	Algorithm core.Algorithm
	Msg       Codec
	// Batch serializes command batches.
	Batch BatchCodec[C]
	// Transport connects the group (a Mux Link when several groups share
	// one socket). The replica does not close it.
	Transport Transport
	// Apply is invoked once per committed command, in commit order, from
	// the replica's event loop; its return value reaches the submitter's
	// ApplyResult.Out.
	Apply func(slot uint64, e Entry[C]) any
	// RoundTimeout bounds each round's collection window (default 2ms —
	// the live stand-in for the good-period bound Φ+2Δ). A slot has no
	// ROUND budget: its one instance runs until it decides or the
	// decision arrives via sync (restarting an instance would discard
	// locked algorithm state and break agreement; the model checker's
	// MutFreshRetry mutant proves it).
	RoundTimeout time.Duration
	// MaxBatch caps commands per proposal (default 64).
	MaxBatch int
	// SyncEvery paces the idle anti-entropy heartbeat (default 250ms).
	SyncEvery time.Duration

	// Persist, when non-nil, is the durability layer (typically a
	// wal.Store): every protocol fact a core step saves is made durable
	// by one Sync before the step's envelopes are transmitted or its
	// waiters acknowledged. Nil keeps the replica volatile.
	Persist Persister
	// Recovered is the state to restart from (the wal.Open result for
	// Persist's directory). Nil or zero-valued means a fresh replica.
	// The log tail beyond its application snapshot is re-applied through
	// Apply before the event loop starts.
	Recovered *wal.State
	// SnapshotState captures the application state machine's snapshot
	// encoding, called under the replica's lock right after Apply ran
	// for every entry the snapshot covers.
	SnapshotState func() []byte
	// SnapshotEvery takes a snapshot (truncating the log) every that
	// many applied slots (default 1024; negative disables).
	SnapshotEvery int
}

// syncRateLimit is the minimum interval between targeted sync messages
// to one peer.
const syncRateLimit = 20 * time.Millisecond

// pullRetry paces re-pulls of a decided batch whose contents are missing.
const pullRetry = 50 * time.Millisecond

// waiterKey identifies a submission.
type waiterKey struct{ client, seq uint64 }

// Replica runs one process's share of a replicated command log.
type Replica[C any] struct {
	cfg ReplicaConfig[C]

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	core    *ReplicaCore[C]
	waiters map[waiterKey]chan ApplyResult

	snapLast   uint64 // applied-slot count at the last snapshot
	persistErr error  // first durability failure; the replica halts on it

	lastPush map[core.ProcessID]time.Time // targeted sync-push rate limiter
	lastPull map[core.ProcessID]time.Time // targeted sync-pull rate limiter

	workCh chan struct{}
}

// NewReplica validates the configuration and builds a stopped replica;
// call Start to begin participating.
func NewReplica[C any](cfg ReplicaConfig[C]) (*Replica[C], error) {
	if cfg.Transport == nil {
		return nil, errors.New("live: nil transport")
	}
	ccfg := CoreConfig[C]{
		Self:      cfg.Self,
		N:         cfg.N,
		Algorithm: cfg.Algorithm,
		Msg:       cfg.Msg,
		Batch:     cfg.Batch,
		MaxBatch:  cfg.MaxBatch,
		Persist:   cfg.Persist,
	}
	var rc *ReplicaCore[C]
	var err error
	if cfg.Recovered != nil {
		rc, err = RestoreReplicaCore(ccfg, cfg.Recovered)
	} else {
		rc, err = NewReplicaCore(ccfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 2 * time.Millisecond
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 250 * time.Millisecond
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica[C]{
		cfg: cfg, ctx: ctx, cancel: cancel,
		core:     rc,
		waiters:  make(map[waiterKey]chan ApplyResult),
		lastPush: make(map[core.ProcessID]time.Time),
		lastPull: make(map[core.ProcessID]time.Time),
		workCh:   make(chan struct{}, 1),
	}
	if cfg.Recovered != nil {
		// Catch the application up with the protocol log: re-apply the
		// fresh entries of every slot past the recovered app snapshot. The
		// batches are present by construction — a batch is durable before
		// (or with) the apply record that references it.
		r.snapLast = cfg.Recovered.AppSlots
		for _, ap := range cfg.Recovered.Tail {
			if ap.Bid == 0 || cfg.Apply == nil {
				continue
			}
			entries, ok := rc.EntriesOf(ap.Bid)
			if !ok && len(ap.Fresh) > 0 {
				cancel()
				return nil, fmt.Errorf("live: recovery: batch %#x of applied slot %d missing", ap.Bid, ap.Slot)
			}
			for _, e := range entries {
				for _, cs := range ap.Fresh {
					if e.Client == cs.Client && e.Seq == cs.Seq {
						cfg.Apply(ap.Slot, e)
						break
					}
				}
			}
		}
	}
	return r, nil
}

// Start launches the event loop.
func (r *Replica[C]) Start() {
	r.wg.Add(1)
	go func() { defer r.wg.Done(); r.run() }()
}

// Stop halts the replica (it does not close the transport) and releases
// every outstanding waiter with a zero ApplyResult.
func (r *Replica[C]) Stop() {
	r.cancel()
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, ch := range r.waiters {
		close(ch)
		delete(r.waiters, k)
	}
}

// Submit accepts a command under a client session; sequence numbers must
// be positive and fresh per client (a seq at or below the client's
// applied high-water mark is a duplicate and resolves immediately). The
// returned channel receives exactly one ApplyResult when the command
// commits (buffered: never blocks the replica), or closes without a
// value if the replica stops first.
//
// A client's submissions to one replica must carry increasing sequence
// numbers in submission order — batches are prefixes of the pending
// queue, so an out-of-order seq could be skipped by dedup forever. Use
// SubmitNext unless you are deliberately modeling retries.
func (r *Replica[C]) Submit(client, seq uint64, cmd C) (<-chan ApplyResult, error) {
	if seq == 0 {
		return nil, errors.New("live: sequence numbers start at 1")
	}
	ch := make(chan ApplyResult, 1)
	r.mu.Lock()
	if r.core.Accept(client, seq, cmd) {
		r.mu.Unlock()
		ch <- ApplyResult{Dup: true}
		return ch, nil
	}
	r.supersede(waiterKey{client, seq}, ch)
	r.mu.Unlock()
	r.signalWork()
	return ch, nil
}

// SubmitNext enters cmd at the client's next fresh sequence number,
// assigned atomically with enqueueing — the safe path for concurrent
// submitters sharing a client session (e.g. HTTP handlers of one server
// process). It returns the waiter and the sequence used.
func (r *Replica[C]) SubmitNext(client uint64, cmd C) (<-chan ApplyResult, uint64) {
	ch := make(chan ApplyResult, 1)
	r.mu.Lock()
	seq := r.core.NextSeq(client)
	if r.core.Accept(client, seq, cmd) {
		r.mu.Unlock()
		ch <- ApplyResult{Slot: 0, Dup: true}
		return ch, seq
	}
	r.supersede(waiterKey{client, seq}, ch)
	r.mu.Unlock()
	r.signalWork()
	return ch, seq
}

// supersede installs a waiter, closing any previous waiter of the same
// submission (a resubmission supersedes it). Callers hold mu.
func (r *Replica[C]) supersede(key waiterKey, ch chan ApplyResult) {
	if old, ok := r.waiters[key]; ok {
		close(old)
	}
	r.waiters[key] = ch
}

// Stats returns a snapshot of the service counters.
func (r *Replica[C]) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.Counters()
}

// LogHash fingerprints the applied decision log (slot, batch id)
// sequence: equal prefixes hash equal, so replicas of one group must
// agree on it up to their commit indexes.
func (r *Replica[C]) LogHash() (uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.LogFingerprint()
}

// DecisionLog copies the applied decisions (for tests).
func (r *Replica[C]) DecisionLog() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.DecisionLogCopy()
}

// Checkpoint takes a durability snapshot now — protocol state plus the
// SnapshotState application capture — and truncates the log, so the
// next restart replays from here instead of from the log's start. The
// graceful-shutdown path (hoserve's SIGTERM handler) calls this; it is
// a no-op without a persister.
func (r *Replica[C]) Checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.Persist == nil {
		return nil
	}
	if r.persistErr != nil {
		return r.persistErr
	}
	return r.checkpointLocked()
}

// checkpointLocked snapshots under mu.
func (r *Replica[C]) checkpointLocked() error {
	st := r.core.PersistState()
	st.AppSlots = uint64(len(st.Log))
	if r.cfg.SnapshotState != nil {
		st.AppState = r.cfg.SnapshotState()
	}
	if err := r.cfg.Persist.Snapshot(st); err != nil {
		return err
	}
	r.snapLast = st.AppSlots
	return nil
}

// Err reports the durability failure that halted the replica, if any.
func (r *Replica[C]) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persistErr
}

// signalWork nudges the event loop without blocking.
func (r *Replica[C]) signalWork() {
	select {
	case r.workCh <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------
// The event loop.

// run is the replica's only goroutine: it feeds events into the core and
// keeps the two shell timers — the per-round collection window and the
// missing-batch pull retry — consistent with the core's state.
func (r *Replica[C]) run() {
	in := r.cfg.Transport.Recv()
	hb := time.NewTicker(r.cfg.SyncEvery)
	defer hb.Stop()

	roundTimer := newStoppedTimer()
	defer roundTimer.Stop()
	retryTimer := newStoppedTimer()
	defer retryTimer.Stop()

	// The (slot, round) the round timer was last armed for: re-arm
	// whenever the core enters a different round.
	var armedSlot uint64
	var armedRound core.Round

	reconcile := func() {
		r.mu.Lock()
		slot, round, active := r.core.RoundState()
		blocked := r.core.Blocked() != 0
		r.mu.Unlock()
		if active {
			if slot != armedSlot || round != armedRound {
				armedSlot, armedRound = slot, round
				resetTimer(roundTimer, r.cfg.RoundTimeout)
			}
		} else if armedSlot != 0 || armedRound != 0 {
			armedSlot, armedRound = 0, 0
			stopTimer(roundTimer)
		}
		if blocked {
			resetTimer(retryTimer, pullRetry)
		} else {
			stopTimer(retryTimer)
		}
	}
	reconcile()

	for {
		select {
		case env, ok := <-in:
			if !ok {
				return
			}
			r.dispatch(Event[C]{Kind: EvEnvelope, Env: env})
		case <-r.workCh:
			r.dispatch(Event[C]{Kind: EvNudge})
		case <-roundTimer.C:
			armedSlot, armedRound = 0, 0 // fired: re-arm via reconcile
			r.dispatch(Event[C]{Kind: EvRoundTimeout})
		case <-retryTimer.C:
			r.dispatch(Event[C]{Kind: EvTick})
		case <-hb.C:
			r.dispatch(Event[C]{Kind: EvTick})
		case <-r.ctx.Done():
			return
		}
		reconcile()
	}
}

// dispatch runs one core step and executes its effects: the durability
// barrier FIRST (everything the step saved is synced before any of its
// output becomes visible), then the Apply hook and waiter resolution
// for committed entries (under mu, in commit order), then transmission
// of the step's envelopes with targeted sync traffic rate-limited per
// peer. A durability failure halts the replica — acknowledging or
// gossiping state the disk refused would turn the next crash into the
// split-brain the log exists to prevent, so the replica goes silent
// (crash-stop) instead.
func (r *Replica[C]) dispatch(ev Event[C]) {
	r.mu.Lock()
	res := r.core.Step(ev)
	if r.cfg.Persist != nil {
		//holint:allow lockorder the sync-before-send barrier is atomic with the step by design: no envelope or ack of this step may become visible before the fsync, and every other mu path is a step that must serialize behind the barrier anyway (DESIGN.md §11)
		if err := r.cfg.Persist.Sync(); err != nil {
			if r.persistErr == nil {
				r.persistErr = err
			}
			r.mu.Unlock()
			r.cancel()
			return
		}
	}
	for _, ae := range res.Applied {
		out := ApplyResult{Slot: ae.Slot, Dup: !ae.Fresh}
		if ae.Fresh && r.cfg.Apply != nil {
			out.Out = r.cfg.Apply(ae.Slot, ae.Entry)
		}
		key := waiterKey{ae.Entry.Client, ae.Entry.Seq}
		if ch, ok := r.waiters[key]; ok {
			//holint:allow lockorder the waiter channel is buffered(1) and this delete makes it the sole send ever, so the send cannot block
			ch <- out
			delete(r.waiters, key)
		}
	}
	if r.cfg.Persist != nil && r.cfg.SnapshotEvery > 0 {
		if n, _ := r.core.LogFingerprint(); n >= r.snapLast+uint64(r.cfg.SnapshotEvery) {
			// The Apply hook just ran for everything in the log, so the
			// app snapshot lines up with the protocol snapshot.
			if err := r.checkpointLocked(); err != nil {
				if r.persistErr == nil {
					r.persistErr = err
				}
				r.mu.Unlock()
				r.cancel()
				return
			}
		}
	}
	var send []Outbound
	if len(res.Out) > 0 {
		now := time.Now()
		send = res.Out[:0]
		for _, o := range res.Out {
			if o.To != AllPeers {
				switch o.Env.Kind {
				case KindSync:
					if r.rateLimited(r.lastPush, o.To, now) {
						continue
					}
				case KindSyncPull:
					if r.rateLimited(r.lastPull, o.To, now) {
						continue
					}
				}
			}
			send = append(send, o)
		}
	}
	r.mu.Unlock()
	for _, o := range send {
		if o.To == AllPeers {
			r.broadcast(o.Env)
		} else {
			r.cfg.Transport.Send(o.To, o.Env)
		}
	}
}

// broadcast sends env to every peer but self.
func (r *Replica[C]) broadcast(env Envelope) {
	for q := 0; q < r.cfg.N; q++ {
		if p := core.ProcessID(q); p != r.cfg.Self {
			r.cfg.Transport.Send(p, env)
		}
	}
}

// rateLimited updates and checks a per-peer limiter. Callers hold mu.
func (r *Replica[C]) rateLimited(m map[core.ProcessID]time.Time, p core.ProcessID, now time.Time) bool {
	if now.Sub(m[p]) < syncRateLimit {
		return true
	}
	m[p] = now
	return false
}

// ---------------------------------------------------------------------
// Timer plumbing.

// newStoppedTimer returns a timer that is not running and whose channel
// is empty.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	stopTimer(t)
	return t
}

// stopTimer stops t and drains a pending fire.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// resetTimer (re)arms t for d from now.
func resetTimer(t *time.Timer, d time.Duration) {
	stopTimer(t)
	t.Reset(d)
}
