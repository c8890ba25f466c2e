package core

import (
	"sort"
	"strings"

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
