// The binary form of Command and Reply: what the mux client and the
// serve pipeline put in an envelope's payload. Same encoding as the
// transport frame around it (internal/wirefmt): a version byte, then the
// struct's fields in declaration order, strings length-prefixed, bools
// one byte, Signers a count followed by that many strings.
//
//	command := version ID Cmd Group Object Data Op
//	           count(Signers) Signers... Delegated(1 byte) Domain
//	reply   := version ID OK(1 byte) Detail Data
//
// Strings cross as raw bytes, so Data — the JSON access request of an
// authorize command, a rendered audit log, a metrics snapshot — is never
// escaped, validated or rewritten on the way; it is parsed once, by the
// handler that wants it (an access request by authz.DecodeAccessRequest,
// single-pass and reflection-free; the certificate fingerprints the
// server then keys its cache by hash a binary encoding of each
// certificate's fields, not JSON).
//
// On the wire path a signed request is copied once on its way from the
// client to the decision. The mux client appends its command straight
// into the pooled transport frame (appendCommand through
// transport.TCPNode.SendMessage); the receiving node reads the frame body
// into a pooled buffer; decodeCommand copies the fields out of it, Data
// included, and the serve pipeline hands the buffer back
// (transport.Envelope.Release); the follower parses that Data string in
// place. The reply travels the other way the same: the pipeline encodes
// it once (encodeReply: the dedup cache keeps those bytes for replays),
// and the client decodes it out of a pooled buffer it releases.

package daemon

import (
	"fmt"

	"jointadmin/internal/wirefmt"
)

// appendCommand appends cmd's wire form to b.
func appendCommand(b []byte, cmd Command) []byte {
	b = append(b, wirefmt.Version)
	b = wirefmt.AppendString(b, cmd.ID)
	b = wirefmt.AppendString(b, cmd.Cmd)
	b = wirefmt.AppendString(b, cmd.Group)
	b = wirefmt.AppendString(b, cmd.Object)
	b = wirefmt.AppendString(b, cmd.Data)
	b = wirefmt.AppendString(b, cmd.Op)
	b = wirefmt.AppendCount(b, len(cmd.Signers))
	for _, s := range cmd.Signers {
		b = wirefmt.AppendString(b, s)
	}
	b = wirefmt.AppendBool(b, cmd.Delegated)
	return wirefmt.AppendString(b, cmd.Domain)
}

// decodeCommand parses a command's wire form into strings of its own:
// nothing in the result aliases msg. It fails — with no partial value —
// on a truncated message, a length that runs past the message, an
// unknown version or trailing bytes.
func decodeCommand(msg []byte) (Command, error) {
	r := wirefmt.NewReader(msg)
	cmd := Command{ID: r.String(), Cmd: r.String(), Group: r.String(), Object: r.String(), Data: r.String(), Op: r.String()}
	if n := r.Count(); n > 0 {
		cmd.Signers = make([]string, n)
		for i := range cmd.Signers {
			cmd.Signers[i] = r.String()
		}
	}
	cmd.Delegated = r.Bool()
	cmd.Domain = r.String()
	if err := r.Finish(); err != nil {
		return Command{}, fmt.Errorf("daemon: decode command: %w", err)
	}
	return cmd, nil
}

// encodeReply returns reply's wire form in one allocation of its own:
// the serve pipeline's dedup cache keeps it.
func encodeReply(reply Reply) []byte {
	b := make([]byte, 0, len(reply.ID)+len(reply.Detail)+len(reply.Data)+4*3+2)
	b = append(b, wirefmt.Version)
	b = wirefmt.AppendString(b, reply.ID)
	b = wirefmt.AppendBool(b, reply.OK)
	b = wirefmt.AppendString(b, reply.Detail)
	return wirefmt.AppendString(b, reply.Data)
}

// decodeReply parses a reply's wire form, as strict as decodeCommand and
// as free of aliases.
func decodeReply(msg []byte) (Reply, error) {
	r := wirefmt.NewReader(msg)
	reply := Reply{ID: r.String(), OK: r.Bool(), Detail: r.String(), Data: r.String()}
	if err := r.Finish(); err != nil {
		return Reply{}, fmt.Errorf("daemon: decode reply: %w", err)
	}
	return reply, nil
}
