package logic

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"jointadmin/internal/clock"
)

// This file implements a parser for the canonical (String) syntax of the
// logic, so that formulas round-trip: Parse(f.String()) is structurally
// equal to f. The parser covers the full concrete fragment — primitive
// propositions and the propositional connectives, temporal comparisons,
// the says/said/received/believes/controls/has modalities for principals
// and compound principals, key- and group-speaks-for (including
// thresholds and key bindings), delegation links and group-graph edges,
// freshness, localization, and all message forms. The quantified
// jurisdiction schemas (KeyJurisdiction etc.) are assumption-only surface
// forms and are not parsed.
//
// Grammar sketch (whitespace-separated where shown):
//
//	formula  := '¬' formula
//	          | '(' formula '∧' formula ')'
//	          | '(' formula '⊃' formula ')'
//	          | '(' formula 'at_'P timespec ')'
//	          | time '≤' time
//	          | 'fresh_'timespec','P message
//	          | 'Group('G')' 'says_'timespec message
//	          | 'Group('G')' '⇒<'int'>_'timespec 'Group('G')'
//	          | subject modality
//	          | lhs '⇒_'timespec (subject | 'Group('G')')
//	          | principal 'delegated^'int '{'perms'}' '['path']'
//	            '⇒_'timespec 'Group('G')'
//	          | name ('(' name ')')?
//	modality := ('believes_'|'controls_') timespec formula
//	          | ('says_'|'said_'|'received_') timespec message
//	          | 'has_' timespec key
//	subject  := name ('|' name)? | '{' subject (',' subject)* '}' tail
//	tail     := ('(' int ',' int ')')? ('|' name)?
//	timespec := timeatom | '[' timeatom ',' timeatom ']' | '⟨' timeatom ',' timeatom '⟩'
//	            (',' observer)?
//	timeatom := 't'int | '∞'
//	message  := '“' text '”' | '(' message (',' message)* ')'
//	          | '⟦' message '⟧' key '⁻¹' | '{' message '}' key | formula

// ErrParse is wrapped by all parse failures.
var ErrParse = errors.New("logic: parse error")

// ParseFormula parses the canonical form of a formula.
func ParseFormula(s string) (Formula, error) {
	p := &parser{src: s}
	f, err := p.formula()
	if err != nil {
		return nil, err
	}
	p.ws()
	if !p.eof() {
		return nil, p.errf("trailing input %q", p.rest())
	}
	return f, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%w at offset %d: %s", ErrParse, p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) rest() string {
	r := p.src[p.pos:]
	if len(r) > 24 {
		r = r[:24] + "…"
	}
	return r
}

func (p *parser) ws() {
	for !p.eof() && p.src[p.pos] == ' ' {
		p.pos++
	}
}

func (p *parser) peekRune() rune {
	r, _ := utf8.DecodeRuneInString(p.src[p.pos:])
	return r
}

func (p *parser) eat(lit string) bool {
	if strings.HasPrefix(p.src[p.pos:], lit) {
		p.pos += len(lit)
		return true
	}
	return false
}

func (p *parser) expect(lit string) error {
	if !p.eat(lit) {
		return p.errf("expected %q, found %q", lit, p.rest())
	}
	return nil
}

// name reads an identifier: letters, digits, '_', '-'.
func (p *parser) name() (string, error) {
	start := p.pos
	for !p.eof() {
		c := p.src[p.pos]
		if c == '_' || c == '-' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", p.errf("expected identifier, found %q", p.rest())
	}
	return p.src[start:p.pos], nil
}

func (p *parser) timeAtom() (clock.Time, error) {
	if p.eat("∞") {
		return clock.Infinity, nil
	}
	if !p.eat("t") {
		return 0, p.errf("expected time, found %q", p.rest())
	}
	start := p.pos
	if p.eat("-") {
		// negative times can appear in tests
	}
	for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected digits after 't'")
	}
	v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return 0, p.errf("bad time literal: %v", err)
	}
	return clock.Time(v), nil
}

// timespec parses "t5", "[t1,t2]" or "⟨t1,t2⟩", each optionally followed
// by ",Observer".
func (p *parser) timespec() (TimeSpec, error) {
	var ts TimeSpec
	switch {
	case p.eat("["):
		b, err := p.timeAtom()
		if err != nil {
			return ts, err
		}
		if err := p.expect(","); err != nil {
			return ts, err
		}
		e, err := p.timeAtom()
		if err != nil {
			return ts, err
		}
		if err := p.expect("]"); err != nil {
			return ts, err
		}
		ts = During(b, e)
	case p.eat("⟨"):
		b, err := p.timeAtom()
		if err != nil {
			return ts, err
		}
		if err := p.expect(","); err != nil {
			return ts, err
		}
		e, err := p.timeAtom()
		if err != nil {
			return ts, err
		}
		if err := p.expect("⟩"); err != nil {
			return ts, err
		}
		ts = Sometime(b, e)
	default:
		t, err := p.timeAtom()
		if err != nil {
			return ts, err
		}
		ts = At(t)
	}
	// Optional observer: ",Name". Only consume if a name follows.
	save := p.pos
	if p.eat(",") {
		n, err := p.name()
		if err != nil {
			p.pos = save
			return ts, nil
		}
		ts = ts.On(n)
	}
	return ts, nil
}

// subject parses "Name", "Name|Key", or "{...}" compounds.
func (p *parser) subject() (Subject, error) {
	if p.eat("{") {
		var members []Principal
		for {
			m, err := p.principal()
			if err != nil {
				return nil, err
			}
			members = append(members, m)
			if p.eat(",") {
				continue
			}
			break
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		cp := CP(members...)
		if p.eat("(") {
			m, err := p.intLit()
			if err != nil {
				return nil, err
			}
			if err := p.expect(","); err != nil {
				return nil, err
			}
			if _, err := p.intLit(); err != nil { // n is redundant
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			cp = cp.WithThreshold(m)
		}
		if p.eat("|") {
			k, err := p.name()
			if err != nil {
				return nil, err
			}
			cp = cp.WithKey(KeyID(k))
		}
		return cp, nil
	}
	return p.principal()
}

func (p *parser) principal() (Principal, error) {
	n, err := p.name()
	if err != nil {
		return Principal{}, err
	}
	pr := P(n)
	if p.eat("|") {
		k, err := p.name()
		if err != nil {
			return Principal{}, err
		}
		pr = pr.Bind(KeyID(k))
	}
	return pr, nil
}

func (p *parser) intLit() (int, error) {
	start := p.pos
	for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected integer")
	}
	v, err := strconv.Atoi(p.src[start:p.pos])
	if err != nil {
		return 0, p.errf("bad integer: %v", err)
	}
	return v, nil
}

// group parses "Group(Name)".
func (p *parser) group() (Group, error) {
	if !p.eat("Group(") {
		return Group{}, p.errf("expected Group(...), found %q", p.rest())
	}
	n, err := p.name()
	if err != nil {
		return Group{}, err
	}
	if err := p.expect(")"); err != nil {
		return Group{}, err
	}
	return G(n), nil
}

// message parses any message form; bare formulas are wrapped as
// MsgFormula (condition M1).
func (p *parser) message() (Message, error) {
	p.ws()
	switch {
	case p.eat("“"):
		start := p.pos
		for !p.eof() && !strings.HasPrefix(p.src[p.pos:], "”") {
			_, size := utf8.DecodeRuneInString(p.src[p.pos:])
			p.pos += size
		}
		if p.eof() {
			return nil, p.errf("unterminated constant")
		}
		val := p.src[start:p.pos]
		p.pos += len("”")
		return Const{Value: val}, nil
	case p.eat("⟦"):
		inner, err := p.message()
		if err != nil {
			return nil, err
		}
		if err := p.expect("⟧"); err != nil {
			return nil, err
		}
		k, err := p.name()
		if err != nil {
			return nil, err
		}
		if err := p.expect("⁻¹"); err != nil {
			return nil, err
		}
		return Sign(inner, KeyID(k)), nil
	}
	// '{' is ambiguous: encrypted message {X}K vs a compound-principal
	// formula; '(' is ambiguous: tuple vs parenthesized formula. Try the
	// message reading first where it is distinctive, then fall back to a
	// formula.
	if p.peekRune() == '{' {
		save := p.pos
		p.pos++ // consume '{'
		inner, err := p.message()
		if err == nil {
			if err2 := p.expect("}"); err2 == nil {
				if k, err3 := p.name(); err3 == nil {
					return Encrypt(inner, KeyID(k)), nil
				}
			}
		}
		p.pos = save // fall through to formula (compound principal)
	}
	if p.peekRune() == '(' {
		save := p.pos
		if t, err := p.tuple(); err == nil {
			return t, nil
		}
		p.pos = save
	}
	f, err := p.formula()
	if err != nil {
		return nil, err
	}
	return AsMessage(f), nil
}

func (p *parser) tuple() (Message, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var items []Message
	for {
		p.ws()
		m, err := p.message()
		if err != nil {
			return nil, err
		}
		items = append(items, m)
		p.ws()
		if p.eat(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if len(items) < 2 {
		// A single parenthesized item is not tuple syntax in the
		// canonical form; reject so the formula fallback can try.
		return nil, p.errf("not a tuple")
	}
	return Tuple{Items: items}, nil
}

// formula is the main entry point of the recursive descent.
func (p *parser) formula() (Formula, error) {
	p.ws()
	switch {
	case p.eat("¬"):
		f, err := p.formula()
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	case p.eat("fresh_"):
		ts, err := p.timespecNoObserver()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		who, err := p.name()
		if err != nil {
			return nil, err
		}
		p.ws()
		x, err := p.message()
		if err != nil {
			return nil, err
		}
		return Fresh{T: ts, Who: who, X: x}, nil
	}
	if p.peekRune() == '(' {
		return p.parenFormula()
	}
	if strings.HasPrefix(p.src[p.pos:], "Group(") {
		g, err := p.group()
		if err != nil {
			return nil, err
		}
		p.ws()
		switch {
		case p.eat("says_"):
			ts, err := p.timespec()
			if err != nil {
				return nil, err
			}
			p.ws()
			x, err := p.message()
			if err != nil {
				return nil, err
			}
			return GroupSays{G: g, T: ts, X: x}, nil
		case p.eat("⇒_"):
			ts, err := p.timespec()
			if err != nil {
				return nil, err
			}
			p.ws()
			sup, err := p.group()
			if err != nil {
				return nil, err
			}
			return GroupSpeaksFor{Sub: g, T: ts, Sup: sup}, nil
		case p.eat("⇒<"):
			depth, err := p.intLit()
			if err != nil {
				return nil, err
			}
			if err := p.expect(">_"); err != nil {
				return nil, err
			}
			ts, err := p.timespec()
			if err != nil {
				return nil, err
			}
			p.ws()
			sup, err := p.group()
			if err != nil {
				return nil, err
			}
			return GroupGraphEdge{Sub: g, T: ts, Depth: depth, Sup: sup}, nil
		default:
			return nil, p.errf("expected says_, ⇒_ or ⇒<d>_ after group, found %q", p.rest())
		}
	}
	// Time comparison: "tN ≤ tM" / "∞ ≤ ...".
	if p.peekRune() == '∞' || startsTimeLiteral(p.src[p.pos:]) {
		save := p.pos
		a, err := p.timeAtom()
		if err == nil {
			p.ws()
			if p.eat("≤") {
				p.ws()
				b, err := p.timeAtom()
				if err != nil {
					return nil, err
				}
				return TimeLE{A: a, B: b}, nil
			}
		}
		p.pos = save
	}
	// Otherwise: subject-led or key-led. Parse the left-hand side, then
	// dispatch on the operator.
	return p.subjectLed()
}

// startsTimeLiteral reports whether s begins with "t<digit>".
func startsTimeLiteral(s string) bool {
	return len(s) >= 2 && s[0] == 't' && (s[1] >= '0' && s[1] <= '9' || s[1] == '-')
}

// timespecNoObserver parses a timespec but leaves a trailing ",Name" for
// the caller (used by fresh, whose clock subscript is mandatory).
func (p *parser) timespecNoObserver() (TimeSpec, error) {
	save := p.pos
	ts, err := p.timespec()
	if err != nil {
		return ts, err
	}
	if ts.Observer != "" {
		// Give the observer back: re-parse without it.
		p.pos = save
		switch {
		case p.eat("["):
			b, _ := p.timeAtom()
			p.expect(",")
			e, _ := p.timeAtom()
			p.expect("]")
			return During(b, e), nil
		case p.eat("⟨"):
			b, _ := p.timeAtom()
			p.expect(",")
			e, _ := p.timeAtom()
			p.expect("⟩")
			return Sometime(b, e), nil
		default:
			t, err := p.timeAtom()
			if err != nil {
				return ts, err
			}
			return At(t), nil
		}
	}
	return ts, nil
}

// parenFormula parses "(φ ∧ ψ)", "(φ ⊃ ψ)" or "(φ at_P T)".
func (p *parser) parenFormula() (Formula, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	l, err := p.formula()
	if err != nil {
		return nil, err
	}
	p.ws()
	switch {
	case p.eat("∧"):
		r, err := p.formula()
		if err != nil {
			return nil, err
		}
		p.ws()
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return And{L: l, R: r}, nil
	case p.eat("⊃"):
		r, err := p.formula()
		if err != nil {
			return nil, err
		}
		p.ws()
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return Implies{L: l, R: r}, nil
	case p.eat("at_"):
		locale, err := p.name()
		if err != nil {
			return nil, err
		}
		p.ws()
		ts, err := p.timespec()
		if err != nil {
			return nil, err
		}
		p.ws()
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return AtFormula{F: l, P: locale, T: ts}, nil
	default:
		return nil, p.errf("expected ∧, ⊃ or at_ in parenthesized formula, found %q", p.rest())
	}
}

// subjectLed parses formulas beginning with a subject or key id:
// modalities, key-speaks-for and group membership.
func (p *parser) subjectLed() (Formula, error) {
	save := p.pos
	sub, err := p.subject()
	if err != nil {
		return nil, err
	}
	end := p.pos
	p.ws()
	switch {
	case p.eat("believes_"):
		ts, err := p.timespec()
		if err != nil {
			return nil, err
		}
		p.ws()
		f, err := p.formula()
		if err != nil {
			return nil, err
		}
		return Believes{Who: sub, T: ts, F: f}, nil
	case p.eat("controls_"):
		ts, err := p.timespec()
		if err != nil {
			return nil, err
		}
		p.ws()
		f, err := p.formula()
		if err != nil {
			return nil, err
		}
		return Controls{Who: sub, T: ts, F: f}, nil
	case p.eat("says_"):
		ts, err := p.timespec()
		if err != nil {
			return nil, err
		}
		p.ws()
		x, err := p.message()
		if err != nil {
			return nil, err
		}
		return Says{Who: sub, T: ts, X: x}, nil
	case p.eat("said_"):
		ts, err := p.timespec()
		if err != nil {
			return nil, err
		}
		p.ws()
		x, err := p.message()
		if err != nil {
			return nil, err
		}
		return Said{Who: sub, T: ts, X: x}, nil
	case p.eat("received_"):
		ts, err := p.timespec()
		if err != nil {
			return nil, err
		}
		p.ws()
		x, err := p.message()
		if err != nil {
			return nil, err
		}
		return Received{Who: sub, T: ts, X: x}, nil
	case p.eat("has_"):
		ts, err := p.timespec()
		if err != nil {
			return nil, err
		}
		p.ws()
		k, err := p.name()
		if err != nil {
			return nil, err
		}
		return Has{Who: sub, T: ts, K: KeyID(k)}, nil
	case p.eat("⇒_"):
		ts, err := p.timespec()
		if err != nil {
			return nil, err
		}
		p.ws()
		// Right side decides: Group → membership, subject → key-good.
		if strings.HasPrefix(p.src[p.pos:], "Group(") {
			g, err := p.group()
			if err != nil {
				return nil, err
			}
			return MemberOf{Who: sub, T: ts, G: g}, nil
		}
		right, err := p.subject()
		if err != nil {
			return nil, err
		}
		// The left side of K ⇒ W must have been a bare name (a key id).
		pr, ok := sub.(Principal)
		if !ok || pr.IsBound() {
			p.pos = save
			return nil, p.errf("left of ⇒ to a subject must be a key id")
		}
		return KeySpeaksFor{K: KeyID(pr.Name), T: ts, Who: right}, nil
	case p.eat("delegated^"):
		to, ok := sub.(Principal)
		if !ok {
			p.pos = save
			return nil, p.errf("delegation subject must be a principal")
		}
		return p.delegates(to)
	}
	// No modality: a bare name is a primitive proposition.
	if pr, ok := sub.(Principal); ok && !pr.IsBound() {
		p.pos = end
		return p.prop(pr.Name)
	}
	return nil, p.errf("expected modality after subject, found %q", p.rest())
}

// delegates completes "W delegated^d{perms}[path] ⇒_T Group(G)" once
// "W delegated^" has been read. The permission set and the path are
// copied verbatim: both are canonical text (CanonicalPerms, ">"-joined
// names) and neither can contain its closing bracket.
func (p *parser) delegates(to Principal) (Formula, error) {
	depth, err := p.intLit()
	if err != nil {
		return nil, err
	}
	perms, err := p.bracketed("{", "}")
	if err != nil {
		return nil, err
	}
	path, err := p.bracketed("[", "]")
	if err != nil {
		return nil, err
	}
	p.ws()
	if err := p.expect("⇒_"); err != nil {
		return nil, err
	}
	ts, err := p.timespec()
	if err != nil {
		return nil, err
	}
	p.ws()
	g, err := p.group()
	if err != nil {
		return nil, err
	}
	return Delegates{To: to, G: g, Depth: depth, Perms: perms, Path: path, T: ts}, nil
}

// bracketed reads the text between open and the next close.
func (p *parser) bracketed(open, close string) (string, error) {
	if err := p.expect(open); err != nil {
		return "", err
	}
	n := strings.Index(p.src[p.pos:], close)
	if n < 0 {
		return "", p.errf("unterminated %s", open)
	}
	text := p.src[p.pos : p.pos+n]
	p.pos += n + len(close)
	return text, nil
}

// prop completes a primitive proposition (F1) whose name has been read:
// optionally one parenthesized name follows it directly, as in the
// residual compiler's "residual(G)" summary.
func (p *parser) prop(name string) (Formula, error) {
	if !p.eat("(") {
		return Prop{Name: name}, nil
	}
	arg, err := p.name()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return Prop{Name: name + "(" + arg + ")"}, nil
}
