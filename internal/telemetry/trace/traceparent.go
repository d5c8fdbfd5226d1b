package trace

import (
	"encoding/hex"
	"fmt"
	"strings"
)

// Header is the canonical HTTP header name for W3C trace context.
const Header = "traceparent"

// Traceparent is a parsed W3C traceparent header (version 00):
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//	^^ ^^^^^^^^^^^^^^^ trace-id ^^^^^^^ ^^ parent-id ^^^^ ^^ flags
type Traceparent struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// String renders the header value in version-00 format.
func (tp Traceparent) String() string {
	return fmt.Sprintf("00-%s-%s-%02x", tp.TraceID, tp.SpanID, tp.Flags)
}

// ParseTraceparent parses a version-00 traceparent header value. It is
// strict about structure (field count, lengths, lowercase hex, non-zero
// IDs, known version) per the W3C Trace Context recommendation: a
// malformed header is an error, and callers start a fresh trace instead.
func ParseTraceparent(s string) (Traceparent, error) {
	var tp Traceparent
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 {
		return tp, fmt.Errorf("trace: traceparent needs 4 fields, got %d", len(parts))
	}
	version, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	if len(version) != 2 || !isLowerHex(version) {
		return tp, fmt.Errorf("trace: bad traceparent version %q", version)
	}
	if version == "ff" {
		return tp, fmt.Errorf("trace: forbidden traceparent version ff")
	}
	if len(traceID) != 32 || !isLowerHex(traceID) {
		return tp, fmt.Errorf("trace: bad trace-id %q", traceID)
	}
	if len(spanID) != 16 || !isLowerHex(spanID) {
		return tp, fmt.Errorf("trace: bad parent-id %q", spanID)
	}
	if len(flags) != 2 || !isLowerHex(flags) {
		return tp, fmt.Errorf("trace: bad trace-flags %q", flags)
	}
	if _, err := hex.Decode(tp.TraceID[:], []byte(traceID)); err != nil {
		return tp, fmt.Errorf("trace: decode trace-id: %w", err)
	}
	if _, err := hex.Decode(tp.SpanID[:], []byte(spanID)); err != nil {
		return tp, fmt.Errorf("trace: decode parent-id: %w", err)
	}
	var fb [1]byte
	if _, err := hex.Decode(fb[:], []byte(flags)); err != nil {
		return tp, fmt.Errorf("trace: decode trace-flags: %w", err)
	}
	tp.Flags = fb[0]
	if tp.TraceID.IsZero() {
		return tp, fmt.Errorf("trace: all-zero trace-id is invalid")
	}
	if tp.SpanID.IsZero() {
		return tp, fmt.Errorf("trace: all-zero parent-id is invalid")
	}
	return tp, nil
}

// Traceparent returns the header value identifying sp as the parent of
// downstream work — what an HTTP client forwards so a remote worker's
// spans join this trace. Returns "" on a nil span.
func (s *Span) Traceparent() string {
	if s == nil || s.tr == nil {
		return ""
	}
	return Traceparent{TraceID: s.tr.id, SpanID: s.id, Flags: 0x01}.String()
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
