package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/persist"
	"repro/internal/pool"
	"repro/internal/sqldb"
)

// This file is the live-ingestion surface of the System: ads are
// posted and expire continuously (the paper's corpus is a live ads
// feed), so the store must accept inserts and deletes while questions
// are being answered.
//
// The consistency model is deliberately simple. sqldb.Table is
// internally synchronized, so every mutation is atomic — a row and
// all of its index postings appear or disappear together. Derived
// state is invalidated by version, not by callback: InsertAd/DeleteAd
// bump the table version, and the per-domain dedup representatives are
// lazily recomputed by the next question that needs them (see
// System.dedupFor). The similarity caches need no invalidation at all:
// they memoize value-pair similarities keyed on the values themselves
// (never on row ids), so rows coming and going cannot make a cached
// entry wrong. Classifier state is only touched when TrainOnIngest is
// set, in which case the ad's text is folded into the domain's
// training set and takes effect at the classifier's next refit.

// InsertAd inserts one ad into the named domain's table and returns
// its RowID. The ad becomes visible to Ask immediately and
// atomically; dedup representatives are refreshed lazily on the next
// question. Unknown domains and unknown columns error. On a
// persistent system (Open with Config.DataDir) the operation is
// write-ahead logged and fsync'd before InsertAd returns: a nil error
// means the ad survives a process kill.
func (s *System) InsertAd(domain string, values map[string]sqldb.Value) (sqldb.RowID, error) {
	return s.InsertAdWithAck(domain, values, AckLocal)
}

// InsertAdWithAck is InsertAd with an explicit durability level. With
// AckQuorum on a replica-set node, the call returns only after
// ReplicaSet/2+1 nodes have durably applied the insert; on timeout
// the returned error wraps ErrQuorumUnavailable and the id is still
// valid — the ad is durable locally, just not yet on a majority.
func (s *System) InsertAdWithAck(domain string, values map[string]sqldb.Value, ack AckLevel) (sqldb.RowID, error) {
	return s.InsertAdPinnedWithAck(domain, values, unpinned, ack)
}

// unpinned is the pin sentinel for inserts whose RowID the System
// assigns itself.
const unpinned sqldb.RowID = -1

// InsertAdPinnedWithAck inserts an ad at a caller-chosen RowID. A
// partitioned front tier assigns cluster-wide ids itself (the id is
// the partition key, so the router must know it before it can pick the
// owning partition) and pins each insert to the id it routed by; the
// owning partition verifies the id hashes into its slice
// (*WrongPartitionError otherwise) and allocates exactly that slot.
// Pinned ids must be >= the table's allocated slot count — ids never
// regress. Pass unpinned (any negative pin) for the ordinary
// self-assigned path.
func (s *System) InsertAdPinnedWithAck(domain string, values map[string]sqldb.Value, pin sqldb.RowID, ack AckLevel) (sqldb.RowID, error) {
	if err := s.writable(); err != nil {
		return 0, err
	}
	if s.persist == nil {
		return s.insertAdLocked(domain, values, pin)
	}
	id, seq, err := s.insertAdGrouped(domain, values, pin, ack)
	if err != nil {
		return id, err
	}
	if ack == AckQuorum {
		// The ingest lock is released: the followers being awaited
		// acquire it to apply this very write.
		if err := s.awaitQuorum(seq); err != nil {
			return id, err
		}
	}
	return id, nil
}

// insertAdLocked is the storage-plus-classifier half of InsertAd. On
// persistent systems the caller holds persister.mu. A pin >= 0 places
// the ad at exactly that RowID (after the partition-slice check); an
// unpinned insert on a partitioned system self-assigns the smallest
// unallocated id that hashes into the hosted slice, so locally
// originated ads still land on the right partition.
func (s *System) insertAdLocked(domain string, values map[string]sqldb.Value, pin sqldb.RowID) (sqldb.RowID, error) {
	tbl, err := s.hostedTable(domain)
	if err != nil {
		return 0, err
	}
	var id sqldb.RowID
	switch {
	case pin >= 0:
		if s.partitioned && !s.ownsKey(pin) {
			return 0, &WrongPartitionError{Domain: domain, ID: pin, Slice: *s.slice.Load()}
		}
		if err := tbl.InsertAt(pin, values); err != nil {
			return 0, err
		}
		id = pin
	case s.partitioned:
		id = sqldb.RowID(tbl.Slots())
		for !s.ownsKey(id) {
			id++
		}
		if err := tbl.InsertAt(id, values); err != nil {
			return 0, err
		}
	default:
		id, err = tbl.Insert(values)
		if err != nil {
			return 0, err
		}
	}
	if s.trainOnIngest && s.classifier != nil {
		if doc := adDocument(values); len(doc) > 0 {
			s.classifier.Train(domain, [][]string{doc})
		}
	}
	return id, nil
}

// DeleteAd removes an ad (an expired listing) from the named domain's
// table. The ad stops appearing in Ask answers immediately;
// its RowID is retired and never reused. Deleting an unknown or
// already-deleted ad is an error. On a persistent system the deletion
// is write-ahead logged and fsync'd before DeleteAd returns.
func (s *System) DeleteAd(domain string, id sqldb.RowID) error {
	return s.DeleteAdWithAck(domain, id, AckLocal)
}

// DeleteAdWithAck is DeleteAd with an explicit durability level (see
// InsertAdWithAck for the AckQuorum contract).
func (s *System) DeleteAdWithAck(domain string, id sqldb.RowID, ack AckLevel) error {
	if err := s.writable(); err != nil {
		return err
	}
	if s.persist == nil {
		return s.deleteAdLocked(domain, id)
	}
	seq, err := s.deleteAdGrouped(domain, id, ack)
	if err != nil {
		return err
	}
	if ack == AckQuorum {
		return s.awaitQuorum(seq)
	}
	return nil
}

// deleteAdLocked is the storage half of DeleteAd. On a partitioned
// system it refuses ids outside the hosted slice (they live on another
// partition — the front tier re-routes on the resulting 421);
// RetirePartition, which deliberately drops moved-out rows, calls
// tbl.Delete directly instead.
func (s *System) deleteAdLocked(domain string, id sqldb.RowID) error {
	tbl, err := s.hostedTable(domain)
	if err != nil {
		return err
	}
	if s.partitioned && !s.ownsKey(id) {
		return &WrongPartitionError{Domain: domain, ID: id, Slice: *s.slice.Load()}
	}
	return tbl.Delete(id)
}

// IngestResult pairs one ad of a batch ingestion call with its
// outcome. ID is valid only for inserts with a nil Err.
type IngestResult struct {
	// Index is the ad's position in the input slice.
	Index int
	// ID is the RowID assigned to an inserted ad.
	ID sqldb.RowID
	// Err is the per-ad failure, nil on success.
	Err error
}

// InsertAdBatch inserts many ads into one domain, returning per-ad
// results in input order. Each ad succeeds or fails independently.
//
// On a non-persistent system the batch runs on the shared worker
// pool: inserts serialize on the table's write lock, so the pool's
// win is overlapping the per-ad preparation (column resolution,
// classifier training when TrainOnIngest is set) rather than the
// appends themselves, and RowID assignment order across the batch is
// unspecified. On a persistent system the batch is applied
// sequentially under the ingest lock — RowIDs follow input order —
// and the whole batch is logged with a single fsync (the group-commit
// win over per-ad InsertAd calls). workers <= 0 uses GOMAXPROCS.
func (s *System) InsertAdBatch(domain string, ads []map[string]sqldb.Value, workers int) []IngestResult {
	results, _ := s.InsertAdBatchWithAck(domain, ads, workers, AckLocal)
	return results
}

// InsertAdBatchWithAck is InsertAdBatch with an explicit durability
// level. The returned error is the quorum outcome: non-nil (wrapping
// ErrQuorumUnavailable) when AckQuorum could not confirm a majority
// in time — the per-ad results are still valid and locally durable,
// exactly as with InsertAdWithAck.
func (s *System) InsertAdBatchWithAck(domain string, ads []map[string]sqldb.Value, workers int, ack AckLevel) ([]IngestResult, error) {
	if err := s.writable(); err != nil {
		results := make([]IngestResult, len(ads))
		for i := range results {
			results[i] = IngestResult{Index: i, Err: err}
		}
		return results, nil
	}
	if s.persist != nil {
		results, seq := s.insertAdBatchDurable(domain, ads, ack)
		if ack == AckQuorum && seq != 0 {
			return results, s.awaitQuorum(seq)
		}
		return results, nil
	}
	return pool.Map(ads, workers, func(i int, ad map[string]sqldb.Value) IngestResult {
		id, err := s.InsertAd(domain, ad)
		return IngestResult{Index: i, ID: id, Err: err}
	}), nil
}

// insertAdBatchDurable applies and logs a batch under the ingest lock
// with one fsync, returning the last logged sequence (0 when nothing
// was logged) for quorum tracking.
func (s *System) insertAdBatchDurable(domain string, ads []map[string]sqldb.Value, ack AckLevel) ([]IngestResult, uint64) {
	p := s.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	results := make([]IngestResult, len(ads))
	if err := p.ingestable(); err != nil {
		for i := range results {
			results[i] = IngestResult{Index: i, Err: err}
		}
		return results, 0
	}
	if err := s.admitLocked(ack); err != nil {
		for i := range results {
			results[i] = IngestResult{Index: i, Err: err}
		}
		return results, 0
	}
	ops := make([]persist.Op, 0, len(ads))
	for i, ad := range ads {
		id, err := s.insertAdLocked(domain, ad, unpinned)
		results[i] = IngestResult{Index: i, ID: id, Err: err}
		if err == nil {
			ops = append(ops, insertOpFor(domain, id, ad))
		}
	}
	if len(ops) == 0 {
		return results, 0
	}
	if err := p.store.Append(ops); err != nil {
		p.failed.Store(true) // unlogged inserts: memory and log diverged
		for i := range results {
			if results[i].Err == nil {
				results[i].Err = fmt.Errorf("core: ad %d inserted but not logged (%v): %w", results[i].ID, err, ErrDurabilityLost)
			}
		}
		return results, 0
	}
	s.maybeCompact()
	return results, ops[len(ops)-1].Seq
}

// DeleteAdBatch deletes many ads from one domain, returning per-ad
// results in input order (ID echoes the input id). Non-persistent
// systems fan out on the shared worker pool; persistent systems apply
// the batch sequentially under the ingest lock and log it with a
// single fsync, like InsertAdBatch. workers <= 0 uses GOMAXPROCS.
func (s *System) DeleteAdBatch(domain string, ids []sqldb.RowID, workers int) []IngestResult {
	results, _ := s.DeleteAdBatchWithAck(domain, ids, workers, AckLocal)
	return results
}

// DeleteAdBatchWithAck is DeleteAdBatch with an explicit durability
// level (see InsertAdBatchWithAck for the AckQuorum contract).
func (s *System) DeleteAdBatchWithAck(domain string, ids []sqldb.RowID, workers int, ack AckLevel) ([]IngestResult, error) {
	if err := s.writable(); err != nil {
		results := make([]IngestResult, len(ids))
		for i := range results {
			results[i] = IngestResult{Index: i, ID: ids[i], Err: err}
		}
		return results, nil
	}
	if s.persist != nil {
		results, seq := s.deleteAdBatchDurable(domain, ids, ack)
		if ack == AckQuorum && seq != 0 {
			return results, s.awaitQuorum(seq)
		}
		return results, nil
	}
	return pool.Map(ids, workers, func(i int, id sqldb.RowID) IngestResult {
		return IngestResult{Index: i, ID: id, Err: s.DeleteAd(domain, id)}
	}), nil
}

// deleteAdBatchDurable applies and logs a delete batch under the
// ingest lock with one fsync, returning the last logged sequence.
func (s *System) deleteAdBatchDurable(domain string, ids []sqldb.RowID, ack AckLevel) ([]IngestResult, uint64) {
	p := s.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	results := make([]IngestResult, len(ids))
	if err := p.ingestable(); err != nil {
		for i := range results {
			results[i] = IngestResult{Index: i, ID: ids[i], Err: err}
		}
		return results, 0
	}
	if err := s.admitLocked(ack); err != nil {
		for i := range results {
			results[i] = IngestResult{Index: i, ID: ids[i], Err: err}
		}
		return results, 0
	}
	ops := make([]persist.Op, 0, len(ids))
	for i, id := range ids {
		err := s.deleteAdLocked(domain, id)
		results[i] = IngestResult{Index: i, ID: id, Err: err}
		if err == nil {
			ops = append(ops, persist.Op{Kind: persist.OpDelete, Domain: domain, ID: id})
		}
	}
	if len(ops) == 0 {
		return results, 0
	}
	if err := p.store.Append(ops); err != nil {
		p.failed.Store(true) // unlogged deletes: memory and log diverged
		for i := range results {
			if results[i].Err == nil {
				results[i].Err = fmt.Errorf("core: ad %d deleted but not logged (%v): %w", results[i].ID, err, ErrDurabilityLost)
			}
		}
		return results, 0
	}
	s.maybeCompact()
	return results, ops[len(ops)-1].Seq
}

// adDocument renders an ad's textual values as one classifier
// training document, tokenized and stopword-filtered the same way
// questions are.
func adDocument(values map[string]sqldb.Value) []string {
	cols := make([]string, 0, len(values))
	for c := range values {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	var sb strings.Builder
	for _, c := range cols {
		if v := values[c]; v.IsString() {
			sb.WriteString(v.Str())
			sb.WriteByte(' ')
		}
	}
	return tokenizeForClassify(sb.String())
}
