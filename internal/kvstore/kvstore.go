// Package kvstore builds a replicated key-value store on top of repeated
// consensus in the Heard-Of model — the kind of application the paper's
// introduction motivates (consensus "appears when implementing atomic
// broadcast, group membership, etc.").
//
// The package holds what the simulated and the live store share: the
// deterministic state machine, the batch codec (Codec), and key routing
// across replication groups (GroupOf). Cluster is the simulated store:
// Groups independent groups of n replicas, each run by internal/rsm's
// virtual-round driver over live.ReplicaCore — the replica code
// internal/livekv deploys — under its own HO environment. All replicas
// of a group converge to the same state whatever transmission faults the
// environment inflicts, provided its rounds eventually meet the
// algorithm's liveness predicate.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"heardof/internal/core"
	"heardof/internal/live"
	"heardof/internal/rsm"
)

// Op is a state machine operation.
type Op int

const (
	// OpPut sets a key.
	OpPut Op = iota + 1
	// OpDelete removes a key.
	OpDelete
	// OpGet reads a key through the replicated log — a linearizable
	// read: it changes no state but occupies a log position, so it is
	// ordered against every write (workload generators use it for the
	// read side of their mix).
	OpGet
)

// Command is one replicated operation.
type Command struct {
	Op    Op
	Key   string
	Value string
}

// String implements fmt.Stringer.
func (c Command) String() string {
	switch c.Op {
	case OpDelete:
		return "del " + c.Key
	case OpGet:
		return "get " + c.Key
	default:
		return "put " + c.Key + "=" + c.Value
	}
}

// StateMachine is the deterministic KV state machine.
type StateMachine struct {
	data map[string]string
	log  []Command
	// restored counts commands applied before the snapshot this machine
	// was restored from; Len reports restored + len(log) so the applied
	// count survives restarts even though the command log itself is not
	// part of the snapshot (the replication layer's durable decision log
	// already owns that history).
	restored int
}

// NewStateMachine returns an empty state machine.
func NewStateMachine() *StateMachine {
	return &StateMachine{data: make(map[string]string)}
}

// Apply executes one command.
func (sm *StateMachine) Apply(cmd Command) {
	switch cmd.Op {
	case OpPut:
		sm.data[cmd.Key] = cmd.Value
	case OpDelete:
		delete(sm.data, cmd.Key)
	}
	sm.log = append(sm.log, cmd)
}

// Get reads a key.
func (sm *StateMachine) Get(key string) (string, bool) {
	v, ok := sm.data[key]
	return v, ok
}

// Len returns the number of applied commands, including those applied
// before a snapshot this machine was restored from.
func (sm *StateMachine) Len() int { return sm.restored + len(sm.log) }

// AppendSnapshot appends a deterministic encoding of the durable state
// — the applied-command count and the key-value map, sorted — to dst.
// The command log is deliberately excluded: it exists for tests and
// debugging, and the replication layer's decision log is the durable
// history.
func (sm *StateMachine) AppendSnapshot(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(sm.Len()))
	keys := make([]string, 0, len(sm.data))
	for k := range sm.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		v := sm.data[k]
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// RestoreSnapshot replaces the machine's state with a snapshot produced
// by AppendSnapshot. An empty input restores the empty machine.
func (sm *StateMachine) RestoreSnapshot(b []byte) error {
	if len(b) == 0 {
		sm.data, sm.log, sm.restored = make(map[string]string), nil, 0
		return nil
	}
	applied, n := binary.Uvarint(b)
	if n <= 0 {
		return errors.New("kvstore: corrupt snapshot: applied count")
	}
	b = b[n:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return errors.New("kvstore: corrupt snapshot: key count")
	}
	b = b[n:]
	// Allocate-after-validate (holint:allocbound): every entry costs at
	// least two bytes (two uvarint length prefixes), so a count beyond
	// the remaining bytes is corruption — sizing the map from it would
	// let a torn or hostile snapshot buy an arbitrary allocation.
	if count > uint64(len(b)) {
		return errors.New("kvstore: corrupt snapshot: key count exceeds payload")
	}
	data := make(map[string]string, count)
	take := func() (string, bool) {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return "", false
		}
		s := string(b[n : n+int(l)])
		b = b[n+int(l):]
		return s, true
	}
	for i := uint64(0); i < count; i++ {
		k, ok1 := take()
		v, ok2 := take()
		if !ok1 || !ok2 {
			return errors.New("kvstore: corrupt snapshot: entry")
		}
		data[k] = v
	}
	if len(b) != 0 {
		return errors.New("kvstore: corrupt snapshot: trailing bytes")
	}
	sm.data, sm.log, sm.restored = data, nil, int(applied)
	return nil
}

// Fingerprint summarizes the state deterministically, for convergence
// checks across replicas.
func (sm *StateMachine) Fingerprint() string {
	keys := make([]string, 0, len(sm.data))
	for k := range sm.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(sm.data[k])
		b.WriteByte(';')
	}
	return b.String()
}

// GroupOf routes a key to one of groups replication groups: an FNV-1a
// hash of the key, mixed by the splitmix64 finalizer so adjacent keys
// spread instead of striping, reduced mod groups. It is a pure function,
// so every node, simulated or live, agrees on each key's group.
func GroupOf(key string, groups int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	z := uint64(offset64)
	for i := 0; i < len(key); i++ {
		z ^= uint64(key[i])
		z *= prime64
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(groups))
}

// Cluster is the simulated store: Groups independent replication groups
// of n replicas, keys partitioned across them by GroupOf, every group
// run by rsm's virtual-round driver under its own HO environment. The
// groups tick in lockstep. Commands touch one key and so one group,
// which is what makes per-group logs sufficient.
type Cluster struct {
	groups []*rsm.Group[Command]
	sms    [][]*StateMachine // [group][replica]
}

// NewCluster builds groups groups of cfg.N replicas. cfg is the replica
// protocol configuration (N, Algorithm, Msg, MaxBatch; Self and Batch
// are filled in); env(g) is group g's HO environment — heterogeneous
// environments are just different providers per index.
func NewCluster(groups int, cfg live.CoreConfig[Command], env func(group int) core.HOProvider) (*Cluster, error) {
	if groups < 1 {
		return nil, fmt.Errorf("kvstore: %d groups, need ≥ 1", groups)
	}
	if env == nil {
		return nil, errors.New("kvstore: nil environment")
	}
	cfg.Batch = Codec{}
	c := &Cluster{groups: make([]*rsm.Group[Command], groups), sms: make([][]*StateMachine, groups)}
	for g := range c.groups {
		var sms []*StateMachine
		grp, err := rsm.NewGroup(cfg, env(g), func(replica int, e live.Entry[Command]) {
			sms[replica].Apply(e.Cmd)
		})
		if err != nil {
			return nil, fmt.Errorf("kvstore: group %d: %w", g, err)
		}
		sms = make([]*StateMachine, cfg.N)
		for i := range sms {
			sms[i] = NewStateMachine()
		}
		c.groups[g], c.sms[g] = grp, sms
	}
	return c, nil
}

// Groups returns the replication groups (for rsm.RunWorkload).
func (c *Cluster) Groups() []*rsm.Group[Command] { return c.groups }

// State returns replica i of group g's state machine.
func (c *Cluster) State(g, i int) *StateMachine { return c.sms[g][i] }

// Submit accepts a command at a contact replica of the group owning its
// key, under the contact's own client session (client id = contact), so
// every Submit is a fresh command.
func (c *Cluster) Submit(contact int, cmd Command) error {
	g := c.groups[GroupOf(cmd.Key, len(c.groups))]
	_, err := g.SubmitNext(contact, uint64(contact), cmd)
	return err
}

// PendingTotal counts submitted-but-unapplied commands at their
// contacts, over all groups.
func (c *Cluster) PendingTotal() int {
	total := 0
	for _, g := range c.groups {
		for p := 0; p < g.N(); p++ {
			total += g.Core(p).Counters().Pending
		}
	}
	return total
}

// Stats sums the groups' counters (Ticks is the shared clock).
func (c *Cluster) Stats() rsm.Stats {
	var st rsm.Stats
	for _, g := range c.groups {
		gs := g.Stats()
		st.Ticks = gs.Ticks
		st.Slots += gs.Slots
		st.Committed += gs.Committed
		st.Rounds += gs.Rounds
		st.Divergent += gs.Divergent
	}
	return st
}

// Drain ticks every group until all are settled — every command applied
// everywhere — or maxTicks pass (rsm.ErrTickBudget). It returns the
// number of commands applied meanwhile.
func (c *Cluster) Drain(maxTicks int) (int, error) {
	before := c.Stats().Committed
	err := rsm.Settle(c.groups, maxTicks)
	return c.Stats().Committed - before, err
}

// Get reads a key at replica 0 of its group — a local read; replicate an
// OpGet for a read through the log.
func (c *Cluster) Get(key string) (string, bool) {
	return c.sms[GroupOf(key, len(c.groups))][0].Get(key)
}

// Converged reports whether every group's replicas hold identical
// decision logs and state, with no divergent decision observed.
func (c *Cluster) Converged() bool {
	for g, grp := range c.groups {
		if grp.Stats().Divergent != 0 {
			return false
		}
		n0, h0 := grp.Core(0).LogFingerprint()
		want := c.sms[g][0].Fingerprint()
		for i, sm := range c.sms[g] {
			if n, h := grp.Core(i).LogFingerprint(); n != n0 || h != h0 || sm.Fingerprint() != want {
				return false
			}
		}
	}
	return true
}

// WorkloadCommand maps a generated workload operation (rsm.RunWorkload)
// to a KV command: reads become linearizable OpGets through the log,
// writes become puts with an occasional delete. Shared by E10–E12 and
// cmd/hoload so their workloads stay key-for-key comparable.
func WorkloadCommand(op rsm.Op) Command {
	key := workloadKey(op.Key)
	switch {
	case !op.Write:
		return Command{Op: OpGet, Key: key}
	case op.Key%11 == 10:
		return Command{Op: OpDelete, Key: key}
	default:
		return Command{Op: OpPut, Key: key, Value: fmt.Sprintf("c%d#%d", op.Client, op.Seq)}
	}
}

// WorkloadRoute is rsm.RunWorkload's router for WorkloadCommand over
// groups groups: it routes an operation by its command's key, so
// workload-driven and Submit-driven traffic agree on every key's group.
func WorkloadRoute(groups int) func(rsm.Op) int {
	return func(op rsm.Op) int { return GroupOf(workloadKey(op.Key), groups) }
}

// workloadKey names workload key index k.
func workloadKey(k int) string { return fmt.Sprintf("k%03d", k) }
