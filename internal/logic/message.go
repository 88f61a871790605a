package logic

// Message is the message sort M_Γ of Appendix A: formulas are messages
// (M1), primitive terms are messages (M2), and messages are closed under
// n-ary functions including signing X_{K^-1} and encryption {X}_K (M3).
type Message interface {
	messageNode()
	// String returns the canonical form of the message.
	String() string
}

// Const is a primitive data constant (object names, operation names such as
// "write", nonces, ...).
type Const struct {
	Value string
}

var _ Message = Const{}

func (Const) messageNode() {}

// String renders the constant quoted, “Value”. The quotes separate a
// constant from its neighbours, but a value may itself contain them, so
// two different terms can render alike (MessageEqual).
func (c Const) String() string {
	var buf [64]byte
	return string(appendConst(buf[:0], c.Value))
}

func appendConst(b []byte, v string) []byte {
	b = append(b, "“"...)
	b = append(b, v...)
	return append(b, "”"...)
}

// Tuple is the n-ary message (X1, ..., Xn).
type Tuple struct {
	Items []Message
}

var _ Message = Tuple{}

func (Tuple) messageNode() {}

// NewTuple builds a tuple message from its components.
func NewTuple(items ...Message) Tuple {
	xs := make([]Message, len(items))
	copy(xs, items)
	return Tuple{Items: xs}
}

// String renders "(X1, X2, ...)".
func (t Tuple) String() string {
	var buf [128]byte
	return string(appendMessage(buf[:0], t))
}

// appendMessage appends m's String form to b. Constants and tuples render
// in place, so a tuple of constants costs its caller one buffer; any other
// message appends its own String.
func appendMessage(b []byte, m Message) []byte {
	switch v := m.(type) {
	case Const:
		return appendConst(b, v.Value)
	case Tuple:
		b = append(b, '(')
		for i, x := range v.Items {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendMessage(b, x)
		}
		return append(b, ')')
	default:
		return append(b, m.String()...)
	}
}

// Signed is the digital signature term X_{K^-1}: message X signed with the
// private counterpart of public key K.
type Signed struct {
	X Message
	K KeyID
}

var _ Message = Signed{}

func (Signed) messageNode() {}

// Sign wraps x in a signature by K^-1.
func Sign(x Message, k KeyID) Signed { return Signed{X: x, K: k} }

// String renders "⟦X⟧K⁻¹" with the key name.
func (s Signed) String() string { return "⟦" + s.X.String() + "⟧" + string(s.K) + "⁻¹" }

// Encrypted is {X}_K: message X encrypted under public key K (readable only
// with K^-1, axiom A11/A13).
type Encrypted struct {
	X Message
	K KeyID
}

var _ Message = Encrypted{}

func (Encrypted) messageNode() {}

// Encrypt wraps x in an encryption under k.
func Encrypt(x Message, k KeyID) Encrypted { return Encrypted{X: x, K: k} }

// String renders "{X}K".
func (e Encrypted) String() string { return "{" + e.X.String() + "}" + string(e.K) }

// MsgFormula embeds a formula as a message (condition M1) — certificates
// are exactly signed formula-messages.
type MsgFormula struct {
	F Formula
}

var _ Message = MsgFormula{}

func (MsgFormula) messageNode() {}

// AsMessage wraps a formula as a message.
func AsMessage(f Formula) MsgFormula { return MsgFormula{F: f} }

// String renders the inner formula.
func (m MsgFormula) String() string { return m.F.String() }

// MessageEqual reports whether two messages render alike: it compares
// their String forms. Two trees of the same constants and tuples always
// do, so those are compared term by term, rendering nothing; renderings
// are compared only when the terms differ, since different terms may
// still render alike (a constant whose value contains ”, “).
func MessageEqual(a, b Message) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameTerms(a, b) || a.String() == b.String()
}

// sameTerms reports whether a and b are the same tree of constants and
// tuples. False says nothing about any other message.
func sameTerms(a, b Message) bool {
	switch x := a.(type) {
	case Const:
		y, ok := b.(Const)
		return ok && x.Value == y.Value
	case Tuple:
		y, ok := b.(Tuple)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !sameTerms(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Submessages returns the set of messages derivable from m by reading
// submessages using the private keys in keys — the submsgs_K(M) closure of
// Appendix C. Signed contents are readable with or without the verification
// key (A12/A14); encrypted contents require the decryption key K^-1, which
// we model as possession of the KeyID in keys.
func Submessages(m Message, keys map[KeyID]bool) []Message {
	seen := make(map[string]bool)
	var out []Message
	var walk func(Message)
	walk = func(x Message) {
		key := x.String()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, x)
		switch v := x.(type) {
		case Tuple:
			for _, item := range v.Items {
				walk(item)
			}
		case Signed:
			walk(v.X)
		case Encrypted:
			if keys[v.K] {
				walk(v.X)
			}
		}
	}
	walk(m)
	return out
}

// ContainsSubmessage reports whether target is derivable from m given keys.
func ContainsSubmessage(m Message, target Message, keys map[KeyID]bool) bool {
	want := target.String()
	for _, sub := range Submessages(m, keys) {
		if sub.String() == want {
			return true
		}
	}
	return false
}
