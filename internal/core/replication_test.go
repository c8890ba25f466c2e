package core

import (
	"errors"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/persist"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// bootstrapFollower builds a durable follower over its own
// (deterministic, identical) substrate set on a fresh directory and
// resets it to the primary's current snapshot blob, the way the HTTP
// shipping layer starts a follower whose cursor is 0.
func bootstrapFollower(t *testing.T, primary *System, base int) *System {
	t.Helper()
	blob, err := primary.ReplSnapshotBlob()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenPeer(persistentConfig(t, populatedDB(t, base), t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	if err := follower.ResetToSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return follower
}

// shipAll drains the primary's stream into the follower.
func shipAll(t *testing.T, primary, follower *System) {
	t.Helper()
	ops, seq, ckpt, err := primary.ReplOpsSince(follower.AppliedSeq())
	if err != nil {
		t.Fatal(err)
	}
	if follower.AppliedSeq() < ckpt {
		t.Fatalf("follower cursor %d is behind checkpoint %d: need a snapshot reset, not shipAll", follower.AppliedSeq(), ckpt)
	}
	follower.NotePrimarySeq(seq)
	if err := follower.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}
	if got := follower.AppliedSeq(); got != seq {
		t.Fatalf("follower applied through %d, primary at %d", got, seq)
	}
}

// TestFollowerConvergesAndIsReadOnly is the core acceptance test: a
// follower reset to a live primary's snapshot and fed its WAL stream
// answers bit-identically, logs what it applies, refuses direct writes
// with the typed error, and reports follower status.
func TestFollowerConvergesAndIsReadOnly(t *testing.T) {
	const base = 150
	primary, err := Open(persistentConfig(t, populatedDB(t, base), t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	mutateLive(t, primary) // some pre-bootstrap history in the WAL
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	follower := bootstrapFollower(t, primary, base)
	st := follower.Status().Replication
	if st.Role != RoleFollower || !st.ReadOnly {
		t.Fatalf("follower status = %+v, want read-only follower", st)
	}
	if !follower.Status().Persistence.Enabled {
		t.Fatal("follower reports no local persistence; every follower is durable")
	}

	// Bootstrapped state already matches.
	assertSameAnswersByID(t, "post-bootstrap", follower, primary)

	// Stream post-bootstrap mutations and re-converge.
	gen := adsgen.NewGenerator(4242)
	var ids []sqldb.RowID
	for _, ad := range gen.Generate(schema.Cars(), 12) {
		id, err := primary.InsertAd("cars", ad)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := primary.DeleteAd("cars", ids[2]); err != nil {
		t.Fatal(err)
	}
	for _, ad := range gen.Generate(schema.Motorcycles(), 6) {
		if _, err := primary.InsertAd("motorcycles", ad); err != nil {
			t.Fatal(err)
		}
	}
	shipAll(t, primary, follower)
	assertSameAnswersByID(t, "post-stream", follower, primary)
	if got, want := follower.Status().Persistence.Seq, primary.Status().Persistence.Seq; got != want {
		t.Fatalf("follower logged through seq %d, primary at %d", got, want)
	}
	if lag := follower.Status().Replication.LagOps; lag != 0 {
		t.Fatalf("converged follower reports lag %d", lag)
	}

	// Direct writes are refused with the typed error, before any table
	// is touched.
	tbl, _ := follower.DB().TableForDomain("cars")
	live, slots := tbl.Len(), tbl.Slots()
	for _, ad := range gen.Generate(schema.Cars(), 3) {
		if _, err := follower.InsertAd("cars", ad); !errors.Is(err, ErrReadOnlyReplica) {
			t.Fatalf("InsertAd on follower: %v, want ErrReadOnlyReplica", err)
		}
	}
	for _, id := range ids[:2] {
		if err := follower.DeleteAd("cars", id); !errors.Is(err, ErrReadOnlyReplica) {
			t.Fatalf("DeleteAd(%d) on follower: %v, want ErrReadOnlyReplica", id, err)
		}
	}
	if tbl.Len() != live || tbl.Slots() != slots {
		t.Fatalf("refused writes mutated the follower table: %d/%d, was %d/%d", tbl.Len(), tbl.Slots(), live, slots)
	}
}

// TestApplyOpsSkipsDuplicatesAndDetectsGaps: re-delivered operations
// are idempotent; a hole in the stream is a *GapError.
func TestApplyOpsSkipsDuplicatesAndDetectsGaps(t *testing.T) {
	const base = 60
	primary, err := Open(persistentConfig(t, populatedDB(t, base), t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower := bootstrapFollower(t, primary, base)

	gen := adsgen.NewGenerator(99)
	for _, ad := range gen.Generate(schema.Cars(), 5) {
		if _, err := primary.InsertAd("cars", ad); err != nil {
			t.Fatal(err)
		}
	}
	ops, seq, _, err := primary.ReplOpsSince(follower.AppliedSeq())
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 5 {
		t.Fatalf("shipped %d ops, want 5", len(ops))
	}
	// Apply a prefix, then re-deliver the whole run: duplicates skip.
	if err := follower.ApplyOps(ops[:3]); err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}
	if follower.AppliedSeq() != seq {
		t.Fatalf("applied %d, want %d", follower.AppliedSeq(), seq)
	}
	// A hole: skip one op entirely.
	for _, ad := range gen.Generate(schema.Cars(), 2) {
		if _, err := primary.InsertAd("cars", ad); err != nil {
			t.Fatal(err)
		}
	}
	ops, _, _, err = primary.ReplOpsSince(follower.AppliedSeq())
	if err != nil {
		t.Fatal(err)
	}
	var gap *GapError
	if err := follower.ApplyOps(ops[1:]); !errors.As(err, &gap) {
		t.Fatalf("gapped apply: %v, want *GapError", err)
	}
	// The gap left the cursor where it was; the full run still lands.
	if err := follower.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}
}

// TestResetToSnapshotAfterCompaction: when the primary compacts past
// the follower's cursor, ReplOpsSince signals the gap via the
// checkpoint sequence and ResetToSnapshot resets the SAME System in
// place to bit-identical convergence.
func TestResetToSnapshotAfterCompaction(t *testing.T) {
	const base = 120
	primary, err := Open(persistentConfig(t, populatedDB(t, base), t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower := bootstrapFollower(t, primary, base)
	stalledAt := follower.AppliedSeq()

	// The follower stalls while the primary ingests, checkpoints (the
	// compaction), and ingests more.
	mutateLive(t, primary)
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen := adsgen.NewGenerator(31337)
	for _, ad := range gen.Generate(schema.Cars(), 7) {
		if _, err := primary.InsertAd("cars", ad); err != nil {
			t.Fatal(err)
		}
	}

	ops, seq, ckpt, err := primary.ReplOpsSince(stalledAt)
	if err != nil {
		t.Fatal(err)
	}
	if stalledAt >= ckpt {
		t.Fatalf("test setup: cursor %d not behind checkpoint %d", stalledAt, ckpt)
	}
	if ops != nil {
		t.Fatalf("ReplOpsSince behind the checkpoint returned %d ops, want nil (snapshot needed)", len(ops))
	}
	if seq <= ckpt {
		t.Fatalf("post-compaction tail missing: seq %d, ckpt %d", seq, ckpt)
	}

	// Reset in place from the fresh snapshot, then tail the
	// post-compaction WAL to the tip.
	blob, err := primary.ReplSnapshotBlob()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ResetToSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if follower.AppliedSeq() != ckpt {
		t.Fatalf("reset cursor %d, want checkpoint %d", follower.AppliedSeq(), ckpt)
	}
	shipAll(t, primary, follower)
	assertSameAnswersByID(t, "post-reset", follower, primary)
}

// TestPromoteFlipsWritable: Promote makes the follower accept writes,
// refuse further stream applies, and report the promoted role.
func TestPromoteFlipsWritable(t *testing.T) {
	const base = 60
	primary, err := Open(persistentConfig(t, populatedDB(t, base), t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower := bootstrapFollower(t, primary, base)

	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Promote(); err != nil {
		t.Fatalf("second Promote: %v", err)
	}
	st := follower.Status().Replication
	if st.Role != RolePromoted || st.ReadOnly {
		t.Fatalf("promoted status = %+v", st)
	}
	gen := adsgen.NewGenerator(7)
	id, err := follower.InsertAd("cars", gen.Generate(schema.Cars(), 1)[0])
	if err != nil {
		t.Fatalf("InsertAd after Promote: %v", err)
	}
	if err := follower.DeleteAd("cars", id); err != nil {
		t.Fatalf("DeleteAd after Promote: %v", err)
	}
	// The old primary's stream is dead to us now.
	if _, err := primary.InsertAd("cars", gen.Generate(schema.Cars(), 1)[0]); err != nil {
		t.Fatal(err)
	}
	ops, _, _, err := primary.ReplOpsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyOps(ops); err == nil {
		t.Fatal("ApplyOps after Promote succeeded")
	}
	if err := follower.ResetToSnapshot(&persist.Snapshot{}); err == nil {
		t.Fatal("ResetToSnapshot after Promote succeeded")
	}

	// Promote on non-followers is idempotent: an already-primary node
	// is already writable, so a failover controller and an operator
	// can race safely.
	if err := primary.Promote(); err != nil {
		t.Fatalf("Promote on primary: %v", err)
	}
	if got := primary.Status().Replication.Role; got != RolePrimary {
		t.Fatalf("primary role after no-op Promote = %q", got)
	}
}

// TestReplAccessorsRequirePrimary: the shipping accessors error with
// ErrNotPrimary on in-memory systems, and Health reports the latch.
func TestReplAccessorsRequirePrimary(t *testing.T) {
	sys := testSystemOver(t, populatedDB(t, 40))
	if _, err := sys.ReplSnapshotBlob(); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("ReplSnapshotBlob: %v, want ErrNotPrimary", err)
	}
	if _, _, _, err := sys.ReplOpsSince(0); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("ReplOpsSince: %v, want ErrNotPrimary", err)
	}
	if _, err := sys.ReplWatch(); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("ReplWatch: %v, want ErrNotPrimary", err)
	}
	if st := sys.Status().Replication; st.Role != RoleStandalone {
		t.Fatalf("standalone role = %q", st.Role)
	}
	if h := sys.Health(); h != HealthServing {
		t.Fatalf("standalone health = %q", h)
	}

	dir := t.TempDir()
	primary, err := Open(persistentConfig(t, populatedDB(t, 40), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if st := primary.Status().Replication; st.Role != RolePrimary {
		t.Fatalf("primary role = %q", st.Role)
	}
	if h := primary.Health(); h != HealthServing {
		t.Fatalf("primary health = %q", h)
	}
	primary.persist.failed.Store(true)
	if h := primary.Health(); h != HealthWriteFailed {
		t.Fatalf("latched health = %q", h)
	}
	primary.persist.failed.Store(false)
}
