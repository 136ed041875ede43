package serve

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
)

// A cursor is the pagination token of /v1/enumerate. Because the index
// answers "smallest solution ≥ ā" in constant time (Theorem 2.3), a
// cursor needs no server-side state at all: it is just the last tuple the
// page returned, bound to its query id and — since graphs became mutable —
// to the graph version the page was served at. Resuming seeks to that
// tuple and skips it — constant startup cost per page, at any depth into
// the stream, even when the cached index was evicted and rebuilt in
// between (the rebuilt index is identical, and the cursor never referenced
// the old one).
//
// The pinned version is what makes paging under concurrent mutation sane:
// every page of one enumeration is served from the same immutable
// snapshot, so the client sees one consistent lexicographic stream — no
// skipped or duplicated tuples — however the graph changes mid-stream.
// Versions are retained for a bounded window; resuming one that has been
// garbage-collected answers 410 version_gone.
//
// Wire format: base64url(raw) of "v2 <query-id> <version> <t0> ... <tk-1>".
// The previous format "v1 <query-id> <t0> ... <tk-1>" predates versioned
// graphs and is still accepted; it resumes at the current head (the exact
// semantics it had when every graph had a single eternal version 0).
// Clients must treat the string as opaque.

const (
	cursorV1 = "v1"
	cursorV2 = "v2"
)

// cursorHead is the decoded version of a v1 cursor: "whatever the head is
// now", the pre-mutation behavior.
const cursorHead = -1

// appendCursor appends the v2 cursor for (queryID, version, last) to dst.
// The raw text is staged in a stack array — a cursor is a 16-digit id, a
// version and k vertex ids — and base64 lands in dst directly.
func appendCursor(dst []byte, queryID string, version int, last []int) []byte {
	var stage [128]byte
	raw := append(stage[:0], cursorV2...)
	raw = append(raw, ' ')
	raw = append(raw, queryID...)
	raw = append(raw, ' ')
	raw = strconv.AppendInt(raw, int64(version), 10)
	for _, v := range last {
		raw = append(raw, ' ')
		raw = strconv.AppendInt(raw, int64(v), 10)
	}
	return base64.RawURLEncoding.AppendEncode(dst, raw)
}

// decodeCursor parses either cursor format. version is cursorHead for a
// legacy v1 cursor.
func decodeCursor(s string) (queryID string, version int, last []int, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return "", 0, nil, fmt.Errorf("cursor is not base64url: %v", err)
	}
	fields := strings.Fields(string(raw))
	var tuple []string
	switch {
	case len(fields) >= 4 && fields[0] == cursorV2:
		version, err = strconv.Atoi(fields[2])
		if err != nil || version < 0 {
			return "", 0, nil, fmt.Errorf("cursor version %q is not a graph version", fields[2])
		}
		queryID, tuple = fields[1], fields[3:]
	case len(fields) >= 3 && fields[0] == cursorV1:
		queryID, version, tuple = fields[1], cursorHead, fields[2:]
	default:
		return "", 0, nil, fmt.Errorf("cursor has unsupported format")
	}
	last = make([]int, len(tuple))
	for i, f := range tuple {
		v, err := strconv.Atoi(f)
		if err != nil {
			return "", 0, nil, fmt.Errorf("cursor component %q is not an integer", f)
		}
		last[i] = v
	}
	return queryID, version, last, nil
}
