package webui

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// This file is the JSON API's encoder. GET /api/ask bodies, scatter
// parts and the front tier's merged bodies are appended straight from
// core.Result / core.ScatterPart into one byte buffer, writing exactly
// the bytes encoding/json writes for APIResult and the ScatterPart
// wire form: struct field order, omitempty, record keys sorted,
// HTML-safe string escaping, ES6 float formatting and json.Encoder's
// trailing newline. APIResult/BuildAPIResult and the json.Encoder path
// stay as the reference the byte-identity tests compare against.

// bodyBufs pools the buffers node responses are encoded into.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers kept for reuse, so one outsized
// body does not stay pinned.
const maxPooledBody = 64 << 10

// writeBody answers 200 with the encoded body b (appended to *buf, a
// buffer taken from bodyBufs), or 500 when encoding failed, and
// returns the buffer to the pool.
func writeBody(w http.ResponseWriter, buf *[]byte, b []byte, err error) {
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "encoding answer: %v", err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*buf = b[:0]
		bodyBufs.Put(buf)
	}
}

// recordKey is one JSON record key and the schema column it reads.
type recordKey struct {
	name string
	col  int
}

// recordKeys returns a schema's attribute names paired with their
// column indexes, in the order encoding/json writes map keys.
func recordKeys(sch *schema.Schema) []recordKey {
	keys := make([]recordKey, len(sch.Attrs))
	for i, a := range sch.Attrs {
		keys[i] = recordKey{a.Name, i}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].name < keys[j].name })
	return keys
}

// appendAPIResult appends the body GET /api/ask serves for res: the
// bytes json.Encoder writes for BuildAPIResult(res). keys are the
// domain's record keys, sorted (see appendRecord).
func appendAPIResult(dst []byte, res *core.Result, keys []recordKey) ([]byte, error) {
	dst = appendResultHead(dst, res.Domain, res.Interpretation.String(), res.SQL, res.ExactCount)
	for i := range res.Answers {
		a := &res.Answers[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendAnswerHead(dst, a.Exact, a.RankSim, a.SimilarityUsed); err != nil {
			return dst, err
		}
		dst = append(appendRecord(dst, a.Record, keys), '}')
	}
	return append(dst, "]}\n"...), nil
}

// EncodeMerged renders the front tier's merge of a partitioned
// domain's scatter parts as the GET /api/ask body a monolith serves.
// Each answer's record is the raw JSON object its partition encoded
// with appendRecord — the encoder a monolith's body uses too — so it
// is spliced in unchanged and the body is byte-identical. The returned
// slice is the caller's.
func EncodeMerged(m *core.ScatterPart[json.RawMessage]) ([]byte, error) {
	n := len(m.Domain) + len(m.Interpretation) + len(m.SQL) + 96
	for i := range m.Answers {
		n += len(m.Answers[i].Record) + len(m.Answers[i].SimilarityUsed) + 64
	}
	dst := appendResultHead(make([]byte, 0, n), m.Domain, m.Interpretation, m.SQL, m.ExactCount)
	for i := range m.Answers {
		a := &m.Answers[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendAnswerHead(dst, a.Exact, a.RankSim, a.SimilarityUsed); err != nil {
			return nil, err
		}
		if len(a.Record) == 0 {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, a.Record...)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), nil
}

// appendResultHead opens an APIResult object up to its answers array.
func appendResultHead(dst []byte, domain, interp, sqlText string, exactCount int) []byte {
	dst = append(dst, `{"domain":`...)
	dst = appendString(dst, domain)
	dst = append(dst, `,"interpretation":`...)
	dst = appendString(dst, interp)
	dst = append(dst, `,"sql":`...)
	dst = appendString(dst, sqlText)
	dst = append(dst, `,"exact_count":`...)
	dst = strconv.AppendInt(dst, int64(exactCount), 10)
	return append(dst, `,"answers":[`...)
}

// appendAnswerHead opens an APIAnswer object up to its record value.
func appendAnswerHead(dst []byte, exact bool, rankSim float64, simUsed string) ([]byte, error) {
	dst = append(dst, `{"exact":`...)
	dst = strconv.AppendBool(dst, exact)
	dst = append(dst, `,"rank_sim":`...)
	dst, err := appendFloat(dst, rankSim)
	if err != nil {
		return dst, err
	}
	if simUsed != "" {
		dst = append(dst, `,"similarity_used":`...)
		dst = appendString(dst, simUsed)
	}
	return append(dst, `,"record":`...), nil
}

// appendScatterPart appends the scatter part a node serves for p: the
// bytes json.Encoder writes for the ScatterPart wire form with every
// record value rendered by sqldb.Value.String, as APIAnswer renders
// it. keys are the domain's record keys, sorted.
func appendScatterPart(dst []byte, p *core.ScatterResult, keys []recordKey) ([]byte, error) {
	dst = append(dst, `{"domain":`...)
	dst = appendString(dst, p.Domain)
	dst = append(dst, `,"interpretation":`...)
	dst = appendString(dst, p.Interpretation)
	dst = append(dst, `,"sql":`...)
	dst = appendString(dst, p.SQL)
	dst = append(dst, `,"max_answers":`...)
	dst = strconv.AppendInt(dst, int64(p.MaxAnswers), 10)
	dst = append(dst, `,"partials_eligible":`...)
	dst = strconv.AppendBool(dst, p.PartialsEligible)
	dst = append(dst, `,"superlative":`...)
	dst = strconv.AppendBool(dst, p.Superlative)
	dst = append(dst, `,"desc":`...)
	dst = strconv.AppendBool(dst, p.Desc)
	dst = append(dst, `,"has_extreme":`...)
	dst = strconv.AppendBool(dst, p.HasExtreme)
	dst = append(dst, `,"extreme":`...)
	dst, err := appendFloat(dst, p.Extreme)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"exact_count":`...)
	dst = strconv.AppendInt(dst, int64(p.ExactCount), 10)
	dst = append(dst, `,"answers":[`...)
	for i := range p.Answers {
		a := &p.Answers[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, a.ID, 10)
		dst = append(dst, `,"exact":`...)
		dst = strconv.AppendBool(dst, a.Exact)
		dst = append(dst, `,"rank_sim":`...)
		if dst, err = appendFloat(dst, a.RankSim); err != nil {
			return dst, err
		}
		dst = append(dst, `,"dropped_cond":`...)
		dst = strconv.AppendInt(dst, int64(a.DroppedCond), 10)
		if a.SimilarityUsed != "" {
			dst = append(dst, `,"similarity_used":`...)
			dst = appendString(dst, a.SimilarityUsed)
		}
		dst = append(dst, `,"record":`...)
		dst = appendRecord(dst, a.Record, keys)
		// omitempty drops a zero float, negative zero included.
		if a.DemoteRankSim != 0 {
			dst = append(dst, `,"demote_rank_sim":`...)
			if dst, err = appendFloat(dst, a.DemoteRankSim); err != nil {
				return dst, err
			}
		}
		if a.DemoteDropped != 0 {
			dst = append(dst, `,"demote_dropped":`...)
			dst = strconv.AppendInt(dst, int64(a.DemoteDropped), 10)
		}
		if a.DemoteSimilarityUsed != "" {
			dst = append(dst, `,"demote_similarity_used":`...)
			dst = appendString(dst, a.DemoteSimilarityUsed)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), nil
}

// appendRecord appends row as the JSON object encoding/json writes for
// its map[string]string rendering: keys sorted, values as
// sqldb.Value.String renders them. keys is the row's schema keys,
// sorted once per domain. An ask takes its answers' rows in the same
// read view as its other stages, so it never hands out the zero Row;
// the zero Row still encodes as {}, as BuildAPIResult's empty map does.
func appendRecord(dst []byte, row sqldb.Row, keys []recordKey) []byte {
	dst = append(dst, '{')
	if !row.IsZero() {
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendString(dst, k.name), ':')
			dst = appendValue(dst, row.At(k.col))
		}
	}
	return append(dst, '}')
}

// appendValue appends v's String rendering as a JSON string.
func appendValue(dst []byte, v sqldb.Value) []byte {
	switch {
	case v.IsNull():
		return append(dst, `"NULL"`...)
	case v.IsNumber():
		// 'f' formatting writes only digits, '-', '.', "NaN" and
		// "±Inf": nothing a JSON string needs escaped.
		dst = append(dst, '"')
		dst = strconv.AppendFloat(dst, v.Num(), 'f', -1, 64)
		return append(dst, '"')
	default:
		return appendString(dst, v.Str())
	}
}

// appendFloat appends f as encoding/json formats a float64: ES6
// number-to-string, exponent form below 1e-6 and from 1e21, with the
// exponent's leading zero dropped. NaN and ±Inf have no JSON form and
// are an error, as they are to encoding/json.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("webui: unsupported float value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on (json.Marshal and json.Encoder's default):
// '"', '\\', control bytes, '<', '>' and '&' escaped, invalid UTF-8
// replaced by \ufffd, and U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
