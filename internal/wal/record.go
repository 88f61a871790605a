// Record types and the on-disk frame format.
//
// Every record is stored as one frame, in the log and the snapshot alike:
//
//	u32 LE payload length | u32 LE CRC-32C of payload | payload (JSON Record)
//
// The CRC covers the payload only; the length field is implicitly
// validated by the CRC landing on a frame boundary. A write that is cut
// short by a crash leaves a torn final frame — a short header or a short
// payload — which Scan distinguishes from mid-log corruption (a complete
// frame whose checksum or encoding is wrong).

package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"jointadmin/internal/clock"
)

// Type tags the kind of state change a record carries.
type Type string

// Record types. The bodies reuse the wire encodings the rest of the
// system already speaks: pki.Marshal for certificates, JSON for trust
// anchors and audit entries.
const (
	// TypeAnchors records a (re-)anchoring: the server's trust anchors,
	// the epoch they establish and the beliefs it carries into it. Every
	// log begins with one (genesis), and every join or leave appends
	// another.
	TypeAnchors Type = "anchors"
	// TypeRevocation records a processed membership revocation
	// (pki.Signed[pki.Revocation]).
	TypeRevocation Type = "revocation"
	// TypeIdentityRevocation records a processed identity-key revocation
	// (pki.Signed[pki.IdentityRevocation]).
	TypeIdentityRevocation Type = "identity-revocation"
	// TypeGroupLink records an accepted privilege-inheritance certificate
	// (pki.Signed[pki.GroupLink]).
	TypeGroupLink Type = "group-link"
	// TypeDelegation records an accepted delegation-link certificate
	// (pki.Signed[pki.Delegation]).
	TypeDelegation Type = "delegation"
	// TypeGroupGraphLink records an accepted group-graph membership
	// certificate (pki.Signed[pki.GroupGraphLink]).
	TypeGroupGraphLink Type = "group-graph-link"
	// TypeAudit records one audit log entry (audit.Entry). Audit records
	// restore the decision history on replay but carry no belief change.
	TypeAudit Type = "audit"
)

// Record is one durable state change.
type Record struct {
	// Seq is the record's log sequence number, assigned by Append;
	// strictly increasing across the snapshot and the log.
	Seq uint64 `json:"seq"`
	// Type selects how Body is decoded.
	Type Type `json:"type"`
	// At is the logical clock reading when the change was applied; replay
	// advances the clock to it so time-dependent beliefs (revocation
	// effective times, freshness) reproduce exactly.
	At clock.Time `json:"at"`
	// Body is the type-specific wire encoding.
	Body json.RawMessage `json:"body"`
}

const (
	// headerSize is the frame header: length + CRC.
	headerSize = 8
	// MaxRecordBytes bounds a single record's payload; a length field
	// beyond it is treated as corruption, not allocation advice.
	MaxRecordBytes = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// corruptError reports mid-log corruption: a structurally complete frame
// that fails its checksum or cannot be decoded. Recovery fails closed on
// it — truncating past verified-bad data would silently forget state.
type corruptError struct {
	Path   string // the log's or the snapshot's path ("" for a byte slice)
	Offset int64  // byte offset of the corrupt frame
	Reason string
}

func (e *corruptError) Error() string {
	where := e.Path
	if where == "" {
		where = "wal"
	}
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s", where, e.Offset, e.Reason)
}

// badChecksum reports the frame at off whose payload's CRC-32C, got, is
// not the stored one.
func badChecksum(off int64, stored, got uint32) *corruptError {
	return &corruptError{Offset: off, Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", stored, got)}
}

// encodeFrame renders a record as one frame. The record is marshaled as
// given; the caller assigns Seq first.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encode record %d: %w", rec.Seq, err)
	}
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("wal: record %d payload %d bytes exceeds limit %d", rec.Seq, len(payload), MaxRecordBytes)
	}
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[headerSize:], payload)
	return frame, nil
}

// Scan parses a framed record stream: the log, the snapshot or shipped
// frames, whose only decoder it is. It returns the records of the valid
// prefix, the offset where parsing stopped, and a non-empty torn
// reason when the stream ends in a partially written final frame (the
// expected leftover of a crash mid-append — safe to truncate). Mid-log
// corruption — a complete frame with a bad checksum, undecodable JSON,
// an out-of-range length, or a sequence regression — returns a
// *corruptError instead: that data was once durable, so recovery must
// not silently drop it.
func Scan(data []byte) (recs []Record, validOff int64, torn string, corrupt *corruptError) {
	off := 0
	var lastSeq uint64
	for off < len(data) {
		rest := len(data) - off
		if rest < headerSize {
			return recs, int64(off), fmt.Sprintf("short header (%d of %d bytes)", rest, headerSize), nil
		}
		length := binary.LittleEndian.Uint32(data[off:])
		// With the full header present the length field was written by the
		// appender in one piece, so an absurd value is corruption rather
		// than a torn write.
		if length == 0 || length > MaxRecordBytes {
			return recs, int64(off), "", &corruptError{Offset: int64(off), Reason: fmt.Sprintf("record length %d out of range", length)}
		}
		if rest-headerSize < int(length) {
			return recs, int64(off), fmt.Sprintf("short payload (%d of %d bytes)", rest-headerSize, length), nil
		}
		crc := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+headerSize : off+headerSize+int(length)]
		if got := crc32.Checksum(payload, crcTable); got != crc {
			return recs, int64(off), "", badChecksum(int64(off), crc, got)
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return recs, int64(off), "", &corruptError{Offset: int64(off), Reason: "undecodable record: " + err.Error()}
		}
		if r.Seq <= lastSeq {
			return recs, int64(off), "", &corruptError{Offset: int64(off), Reason: fmt.Sprintf("sequence regression: %d after %d", r.Seq, lastSeq)}
		}
		lastSeq = r.Seq
		recs = append(recs, r)
		off += headerSize + int(length)
	}
	return recs, int64(off), "", nil
}
