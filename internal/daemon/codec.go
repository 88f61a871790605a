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
// handler that wants it.

package daemon

import (
	"fmt"

	"jointadmin/internal/wirefmt"
)

// EncodeCommand returns cmd's wire form.
func EncodeCommand(cmd Command) []byte {
	n := len(cmd.ID) + len(cmd.Cmd) + len(cmd.Group) + len(cmd.Object) + len(cmd.Data) + len(cmd.Op) + len(cmd.Domain)
	for _, s := range cmd.Signers {
		n += len(s)
	}
	// Every length prefix of a message under the 16 MB frame limit fits
	// in 4 bytes; 8 prefixes, the version and the bool besides Signers.
	b := make([]byte, 0, n+4*(8+len(cmd.Signers))+2)
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

// DecodeCommand parses a command's wire form. It fails — with no partial
// value — on a truncated message, a length that runs past the message,
// an unknown version or trailing bytes.
func DecodeCommand(msg []byte) (Command, error) {
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

// EncodeReply returns reply's wire form.
func EncodeReply(reply Reply) []byte {
	b := make([]byte, 0, len(reply.ID)+len(reply.Detail)+len(reply.Data)+4*3+2)
	b = append(b, wirefmt.Version)
	b = wirefmt.AppendString(b, reply.ID)
	b = wirefmt.AppendBool(b, reply.OK)
	b = wirefmt.AppendString(b, reply.Detail)
	return wirefmt.AppendString(b, reply.Data)
}

// DecodeReply parses a reply's wire form, as strict as DecodeCommand.
func DecodeReply(msg []byte) (Reply, error) {
	r := wirefmt.NewReader(msg)
	reply := Reply{ID: r.String(), OK: r.Bool(), Detail: r.String(), Data: r.String()}
	if err := r.Finish(); err != nil {
		return Reply{}, fmt.Errorf("daemon: decode reply: %w", err)
	}
	return reply, nil
}
