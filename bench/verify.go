package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/cqads"
	"repro/internal/persist"
	"repro/internal/sqldb"
	"repro/internal/webui"
)

type digest [sha256.Size]byte

// checkStructure asserts the invariants every /api/ask body must hold
// on any seed and any topology: at most the paper's 30 answers, exact
// answers before partial ones, partial Rank_Sim non-increasing.
func checkStructure(body []byte) error {
	var res webui.APIResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if len(res.Answers) > cqads.DefaultMaxAnswers {
		return fmt.Errorf("%d answers, cap is %d", len(res.Answers), cqads.DefaultMaxAnswers)
	}
	if res.ExactCount < 0 || res.ExactCount > len(res.Answers) {
		return fmt.Errorf("exact_count %d with %d answers", res.ExactCount, len(res.Answers))
	}
	for i, a := range res.Answers {
		if a.Exact != (i < res.ExactCount) {
			return fmt.Errorf("answer %d: exact=%v but exact_count=%d", i, a.Exact, res.ExactCount)
		}
		if i > res.ExactCount && a.RankSim > res.Answers[i-1].RankSim {
			return fmt.Errorf("answer %d: rank_sim %g rises above %g", i, a.RankSim, res.Answers[i-1].RankSim)
		}
	}
	return nil
}

// isCars reports whether a response was answered in the cars domain —
// the class front_ask scatters. The routed domain leads every body.
func isCars(body []byte) bool {
	return bytes.HasPrefix(body, []byte(`{"domain":"`+partitionedDomain+`"`))
}

// get issues one GET, with extra headers if any, and returns status
// and body.
func get(client *http.Client, url string, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return do(client, req)
}

// serve runs one GET through a handler in-process.
func serve(h http.Handler, path string, hdr map[string]string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// verifier holds what in-window responses are compared against: the
// digest of each sampled question's first verified response.
type verifier struct {
	digests []digest // by question index; valid[i] says whether set
	valid   []bool
}

// referenceDigests answers the sample through a monolith's handler
// in-process — the bytes every topology must reproduce (the repo's
// monolith-identity invariant).
func referenceDigests(mono http.Handler, in *inputs) ([]digest, error) {
	out := make([]digest, in.sample)
	for i := range out {
		status, body := serve(mono, in.paths[i], nil)
		if status != http.StatusOK {
			return nil, fmt.Errorf("reference monolith answered %d for %q", status, in.texts[i])
		}
		out[i] = sha256.Sum256(body)
	}
	return out, nil
}

// verifyPass asks every sampled question once through the entry URL,
// checks status, structure and (when given) the reference bytes, and
// records the digests later window re-checks compare against. It
// returns the number asked, the number wrong, and a combined digest
// over the per-question digests in question order.
func verifyPass(client *http.Client, entry string, in *inputs, reference []digest) (v *verifier, asked, wrong int, combined string, err error) {
	v = &verifier{digests: make([]digest, len(in.paths)), valid: make([]bool, len(in.paths))}
	all := sha256.New()
	for i := 0; i < in.sample; i++ {
		status, body, gerr := get(client, entry+in.paths[i], nil)
		asked++
		d := sha256.Sum256(body)
		all.Write(d[:])
		switch {
		case gerr != nil:
			err = fmt.Errorf("question %d %q: %w", i, in.texts[i], gerr)
		case status != http.StatusOK:
			err = fmt.Errorf("question %d %q: HTTP %d", i, in.texts[i], status)
		case reference != nil && d != reference[i]:
			err = fmt.Errorf("question %d %q: bytes differ from the monolith's", i, in.texts[i])
		default:
			if serr := checkStructure(body); serr != nil {
				err = fmt.Errorf("question %d %q: %w", i, in.texts[i], serr)
			} else {
				v.digests[i], v.valid[i] = d, true
				continue
			}
		}
		wrong++
	}
	return v, asked, wrong, hex.EncodeToString(all.Sum(nil)), err
}

// recheck is the in-window 1 % check: structure always, and byte
// identity with the verification pass when the corpus cannot have
// changed (readOnly) and the question was in the verified sample.
func (v *verifier) recheck(idx int, body []byte, readOnly bool) error {
	if readOnly && v.valid[idx] && sha256.Sum256(body) != v.digests[idx] {
		return fmt.Errorf("question %d: bytes changed since the verification pass", idx)
	}
	return checkStructure(body)
}

// goldenFile holds the committed combined digests for goldenSeed, one
// per distinct (corpus, question pool): ask_small, front_ask and mixed
// ask the same questions of the same ads and share an entry.
const (
	goldenSeed = 42
	goldenFile = "golden/seed42.json"
)

func goldenKey(spec workloadSpec) string {
	return fmt.Sprintf("ads%d-questions%d", spec.Ads, spec.Pool)
}

func loadGolden(dir string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, goldenFile))
	if err != nil {
		return nil, err
	}
	var g map[string]string
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return g, nil
}

func saveGolden(dir, key, combined string) error {
	g, err := loadGolden(dir)
	if err != nil {
		g = map[string]string{}
	}
	g[key] = combined
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenFile), append(raw, '\n'), 0o644)
}

// adRef names one ad a client wrote.
type adRef struct {
	domain string
	id     sqldb.RowID
}

// checkDurability copies the live data directory without calling
// Close — a process kill with the OS cache intact — reopens the copy,
// and counts every acked insert that is missing and every acked delete
// that is still there. The log is copied before the snapshot: a
// background compaction between the two copies then leaves full log +
// newer snapshot, which recovery de-duplicates by sequence number; the
// other order could pair a truncated log with the older snapshot and
// report a loss that no crash can produce.
func checkDurability(t *topology, live, deleted []adRef) (lost int, err error) {
	src := t.opts
	src.DataDir = filepath.Join(t.dataDir, "node")
	dst := filepath.Join(t.dataDir, "killed")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	for _, name := range []string{persist.WALFile, persist.SnapshotFile} {
		raw, err := os.ReadFile(filepath.Join(src.DataDir, name))
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			return 0, err
		}
	}
	src.DataDir = dst
	sys, err := cqads.Open(src)
	if err != nil {
		return 0, fmt.Errorf("reopening the killed copy: %w", err)
	}
	defer sys.Close()
	present := func(a adRef) bool {
		tbl, ok := sys.DB().TableForDomain(a.domain)
		if !ok {
			return false
		}
		_, ok = tbl.Get(a.id)
		return ok
	}
	for _, a := range live {
		if !present(a) {
			lost++
		}
	}
	for _, a := range deleted {
		if present(a) {
			lost++
		}
	}
	return lost, nil
}
