package model

import (
	"fmt"
	"math/rand"
	"strings"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
)

// This file is the computational counterpart of Appendix D: the soundness
// theorem states that every derivation of the logic is valid in the model.
// We check it for the rule functions internal/logic implements, the ones
// the engine applies: (1) generate random legal runs, (2) sample premises
// that are true in the run, (3) apply the rule function to them, and (4)
// evaluate the conclusion it returns by the truth conditions. A false
// conclusion from true premises is a counterexample to soundness.

// instance is one sampled rule application: premises (their conjunction
// is the antecedent) and what the rule function returned for them — its
// conclusion, or its refusal — evaluated at time at.
type instance struct {
	rule       string // the Rule* label the engine's proofs record
	premises   []logic.Formula
	conclusion logic.Formula
	refusal    error
	at         clock.Time
}

// String renders the instance for failure messages.
func (in instance) String() string {
	ps := make([]string, len(in.premises))
	for i, p := range in.premises {
		ps[i] = p.String()
	}
	return fmt.Sprintf("%s @%s: %s ⊢ %v", in.rule, in.at, strings.Join(ps, " ∧ "), in.conclusion)
}

// checkInstance evaluates the instance on the run. It returns
// vacuous=true when a premise is false (the instance claims nothing), and
// an error when every premise holds but the rule refused them — skipping
// it would let a rule that refuses everything pass unseen — or its
// conclusion is false: a soundness violation.
func checkInstance(r *Run, in instance) (vacuous bool, err error) {
	for _, p := range in.premises {
		ok, err := Eval(r, in.at, p)
		if err != nil {
			return false, fmt.Errorf("%s: premise: %w", in.rule, err)
		}
		if !ok {
			return true, nil
		}
	}
	if in.refusal != nil {
		return false, fmt.Errorf("%s refused premises that hold: %s: %w", in.rule, in, in.refusal)
	}
	ok, err := Eval(r, in.at, in.conclusion)
	if err != nil {
		return false, fmt.Errorf("%s: conclusion: %w", in.rule, err)
	}
	if !ok {
		return false, fmt.Errorf("soundness violation: %s", in)
	}
	return false, nil
}

// Config sizes the generated runs.
type Config struct {
	Principals int        // simple principals (≥ 3)
	Steps      int        // scheduled event times
	End        clock.Time // run horizon
}

// DefaultConfig returns the sizing used by the soundness tests.
func DefaultConfig() Config {
	return Config{Principals: 4, Steps: 40, End: 200}
}

// scenario records the ground truth the generator built into a run, from
// which rule premises are sampled.
type scenario struct {
	// KeyOwner maps each key to the subject whose signatures it verifies.
	KeyOwner map[logic.KeyID]logic.Subject
	// Group is the group interpreted by the run's authorization relation.
	Group logic.Group
	// BoundMember is an authorized key-bound principal.
	BoundMember logic.Principal
	// PlainMember is an authorized unbound principal.
	PlainMember logic.Principal
	// ThresholdCP is the authorized threshold compound principal.
	ThresholdCP logic.CompoundPrincipal
	// SharedCP is the compound principal owning a distributed-share key.
	SharedCP logic.CompoundPrincipal
	// SharedKey is the compound principal's shared public key.
	SharedKey logic.KeyID
	// Utterances are the times and contents at which a threshold quorum
	// co-signed the same content.
	Utterances []utterance
	// Spoken records the formulas the authority uttered, for A22.
	Spoken []utterance
}

// utterance is one coordinated threshold signing (Content, Signers) or
// one formula the authority spoke (Body).
type utterance struct {
	At      clock.Time
	Content logic.Message
	Signers []logic.Principal
	Body    logic.Formula
}

// generateRun builds a pseudo-random legal run exercising every formula
// class the sampled rules range over, returning the run and its scenario.
func generateRun(seed int64, cfg Config) (*Run, *scenario) {
	rng := rand.New(rand.NewSource(seed))
	if cfg.Principals < 3 {
		cfg.Principals = 3
	}
	if cfg.Steps < 10 {
		cfg.Steps = 10
	}
	if cfg.End < clock.Time(cfg.Steps)*4 {
		cfg.End = clock.Time(cfg.Steps) * 4
	}
	r := NewRun(cfg.End)
	sc := &scenario{KeyOwner: make(map[logic.KeyID]logic.Subject)}

	// Simple principals with their own keys, generated at t=0.
	names := make([]string, cfg.Principals)
	for i := range names {
		names[i] = fmt.Sprintf("P%d", i+1)
		k := logic.KeyID(fmt.Sprintf("K%d", i+1))
		r.Generate(names[i], k, 0)
		sc.KeyOwner[k] = logic.P(names[i])
	}
	server := "Srv"
	r.Trace(server) // pure receiver

	// A compound principal {P1,P2,P3} owning a shared key KCP: the key is
	// "generated" by member P1 running the distributed protocol, and the
	// compound trace acquires it (legality: memberGenerated).
	members := []logic.Principal{logic.P(names[0]), logic.P(names[1]), logic.P(names[2])}
	sharedCP := logic.CP(members...)
	cpTrace := r.AddCompound(sharedCP.String(), names[0], names[1], names[2])
	sharedKey := logic.KeyID("KCP")
	r.Generate(names[0], sharedKey, 1)
	cpTrace.GrantKey(sharedKey, 1)
	cpTrace.Append(Event{Kind: EventGenerate, Key: sharedKey, At: 1})
	sc.SharedCP = sharedCP
	sc.SharedKey = sharedKey
	sc.KeyOwner[sharedKey] = sharedCP

	// Group with three kinds of authorized subjects.
	g := logic.G("G1")
	sc.Group = g
	sc.PlainMember = logic.P(names[0])
	sc.BoundMember = logic.P(names[1]).Bind("K2")
	boundMembers := make([]logic.Principal, 3)
	for i := 0; i < 3; i++ {
		boundMembers[i] = logic.P(names[i]).Bind(logic.KeyID(fmt.Sprintf("K%d", i+1)))
	}
	thresholdCP := logic.CP(boundMembers...).WithThreshold(2)
	sc.ThresholdCP = thresholdCP
	r.Authorize(g.Name, sc.PlainMember)
	r.Authorize(g.Name, sc.BoundMember)
	r.Authorize(g.Name, thresholdCP)

	// Schedule events. Authorized principals only ever utter "on behalf
	// of the group" content (which keeps the membership truth condition
	// satisfied); unauthorized principals chatter freely.
	t := clock.Time(2)
	for step := 0; step < cfg.Steps; step++ {
		t += clock.Time(1 + rng.Intn(3))
		switch rng.Intn(7) {
		case 0: // unauthorized chatter, possibly signed by the sender
			i := rng.Intn(cfg.Principals)
			if cfg.Principals > 3 {
				i = 3 + rng.Intn(cfg.Principals-3)
			}
			from := names[i%len(names)]
			content := logic.Const{Value: fmt.Sprintf("chat-%d", rng.Intn(50))}
			var msg logic.Message
			switch rng.Intn(3) {
			case 0:
				msg = content
			case 1:
				msg = logic.Sign(content, logic.KeyID(fmt.Sprintf("K%d", (i%len(names))+1)))
			default:
				msg = logic.NewTuple(content, logic.Const{Value: fmt.Sprintf("tag-%d", rng.Intn(10))})
			}
			mustSend(r, from, server, msg, t, t+clock.Time(rng.Intn(3)))
		case 1: // plain member utters for the group
			content := logic.Const{Value: fmt.Sprintf("order-%d", rng.Intn(50))}
			mustSend(r, sc.PlainMember.Name, server, content, t, t)
		case 2: // bound member utters, signed with its bound key
			content := logic.Const{Value: fmt.Sprintf("order-%d", rng.Intn(50))}
			mustSend(r, sc.BoundMember.Name, server,
				logic.Sign(content, sc.BoundMember.Key), t, t)
		case 3: // threshold quorum co-signs the same content at time t
			content := logic.Const{Value: fmt.Sprintf("joint-%d", rng.Intn(50))}
			quorum := pickQuorum(rng, boundMembers, 2+rng.Intn(2))
			for _, m := range quorum {
				mustSend(r, m.Name, server, logic.Sign(content, m.Key), t, t)
			}
			sc.Utterances = append(sc.Utterances, utterance{At: t, Content: content, Signers: quorum})
		case 4: // the compound principal speaks with its shared key
			content := logic.Const{Value: fmt.Sprintf("cp-%d", rng.Intn(50))}
			mustSend(r, sharedCP.String(), server, logic.Sign(content, sharedKey), t, t+1)
		case 6: // an authority utters a formula it controls (A22 material)
			var body logic.Formula
			if rng.Intn(4) == 0 {
				// Occasionally a false formula: the authority then does
				// NOT control it, and the A22 instance is vacuous — the
				// checker must handle both.
				body = logic.TimeLE{A: clock.Time(5 + rng.Intn(5)), B: clock.Time(rng.Intn(5))}
			} else {
				body = logic.TimeLE{A: clock.Time(rng.Intn(5)), B: clock.Time(5 + rng.Intn(5))}
			}
			mustSend(r, "Auth", server, logic.AsMessage(body), t, t)
			sc.Spoken = append(sc.Spoken, utterance{At: t, Body: body})
		case 5: // replay: server's mailbox content forwarded by Eve
			srv := r.Trace(server)
			if msgs := srv.Msgs(t); len(msgs) > 0 {
				m := msgs[rng.Intn(len(msgs))]
				// Eve intercepts (receives a copy) then forwards.
				mustSend(r, server, "Eve", m, t, t)
				mustSend(r, "Eve", names[rng.Intn(len(names))], m, t, t+1)
			}
		}
	}
	return r, sc
}

func mustSend(r *Run, from, to string, msg logic.Message, sendAt, recvAt clock.Time) {
	if err := r.Send(from, to, msg, sendAt, recvAt); err != nil {
		// The generator always schedules recvAt >= sendAt; a failure here
		// is a programming error worth failing fast on in tests.
		panic(err)
	}
}

func pickQuorum(rng *rand.Rand, members []logic.Principal, size int) []logic.Principal {
	if size > len(members) {
		size = len(members)
	}
	idx := rng.Perm(len(members))[:size]
	out := make([]logic.Principal, size)
	for i, j := range idx {
		out[i] = members[j]
	}
	return out
}

// instances applies each sampled rule function to premises the run makes
// true: every send and receive, the group's members' utterances, and the
// authority's spoken formulas.
func instances(r *Run, sc *scenario) []instance {
	var out []instance
	add := func(rule string, at clock.Time, conclusion logic.Formula, refusal error, premises ...logic.Formula) {
		out = append(out, instance{rule: rule, premises: premises, conclusion: conclusion, refusal: refusal, at: at})
	}
	for _, name := range r.Names() {
		tr := r.Traces[name]
		who := namedSubject(r, name)
		for _, e := range tr.Events {
			at, later := logic.At(e.At), e.At+7
			switch e.Kind {
			case EventReceive:
				rcv := logic.Received{Who: logic.P(name), T: at, X: e.Msg}
				if later <= r.End {
					c, err := logic.A8Received(rcv, later)
					add(logic.RuleA8Monotone, later, c, err, rcv)
				}
				if _, ok := e.Msg.(logic.Signed); ok {
					c, err := logic.A12ReadSigned(rcv)
					add(logic.RuleA12ReadSigned, e.At, c, err, rcv)
				}
				// A10 for every signed submessage the receiver can read,
				// under the binding of its key to the key's owner.
				for _, sub := range logic.Submessages(e.Msg, tr.Keyset(e.At)) {
					sig, ok := sub.(logic.Signed)
					if !ok || sc.KeyOwner[sig.K] == nil {
						continue
					}
					key := logic.KeySpeaksFor{K: sig.K, T: at, Who: sc.KeyOwner[sig.K]}
					got := logic.Received{Who: logic.P(name), T: at, X: sig}
					said, saidSigned, err := logic.A10Originator(key, got)
					add(logic.RuleA10Originate, e.At, logic.And{L: said, R: saidSigned}, err, key, got)
				}
			case EventSend:
				says := logic.Says{Who: who, T: at, X: e.Msg}
				said := logic.A20SaysToSaid(says)
				add(logic.RuleA20SaysSaid, e.At, said, nil, says)
				if later <= r.End {
					c, err := logic.A8Said(said, later)
					add(logic.RuleA8Monotone, later, c, err, said)
				}
				if hi := e.At + 5; hi <= r.End {
					span := logic.Said{Who: who, T: logic.During(e.At, hi), X: e.Msg}
					c, err := logic.A7Point(span, e.At+2)
					add(logic.RuleA7Interval, hi, c, err, span)
				}
				if tup, ok := e.Msg.(logic.Tuple); ok {
					for i := range tup.Items {
						c, err := logic.A15SaidComponent(said, i)
						add(logic.RuleA15SaidPart, e.At, c, err, said)
					}
				}
				if _, ok := e.Msg.(logic.Signed); ok {
					c, err := logic.A17SaidSigned(said)
					add(logic.RuleA17SaidSigned, e.At, c, err, said)
				}
				// A message is fresh just before its first utterance
				// (vacuous when it was uttered earlier).
				if e.At >= 3 {
					fresh := logic.Fresh{T: logic.At(e.At - 1), Who: name, X: e.Msg}
					c, err := logic.A21Fresh(fresh, logic.NewTuple(logic.Const{Value: "req"}, e.Msg))
					add(logic.RuleA21Fresh, e.At-1, c, err, fresh)
					earlier, err := logic.A8Fresh(fresh, e.At-3)
					add(logic.RuleA8Monotone, e.At-1, earlier, err, fresh)
				}
			}
		}
	}

	// Statement 25 through the engine's dispatch (DeriveGroupSays), which
	// picks A34, A35 or A38 by the membership's subject and names it:
	// the plain member's utterances, the bound member's utterances signed
	// with its bound key, and every threshold quorum's co-signatures.
	groupSays := func(mem logic.MemberOf, at clock.Time, utts []logic.Says, keys ...logic.KeySpeaksFor) {
		keyFor := func(who string) (logic.KeySpeaksFor, bool) {
			for _, k := range keys {
				if k.Who.String() == who {
					return k, true
				}
			}
			return logic.KeySpeaksFor{}, false
		}
		gs, rule, err := logic.DeriveGroupSays(mem, utts, at, keyFor)
		premises := []logic.Formula{mem}
		for _, k := range keys {
			premises = append(premises, k)
		}
		for _, u := range utts {
			premises = append(premises, u)
		}
		add(rule, at, gs, err, premises...)
	}
	for _, e := range r.Traces[sc.PlainMember.Name].Events {
		if e.Kind == EventSend {
			at := logic.At(e.At)
			groupSays(logic.MemberOf{Who: sc.PlainMember, T: at, G: sc.Group}, e.At,
				[]logic.Says{{Who: sc.PlainMember, T: at, X: e.Msg}})
		}
	}
	bound := sc.BoundMember
	for _, e := range r.Traces[bound.Name].Events {
		if sig, ok := e.Msg.(logic.Signed); ok && e.Kind == EventSend && sig.K == bound.Key {
			at := logic.At(e.At)
			groupSays(logic.MemberOf{Who: bound, T: at, G: sc.Group}, e.At,
				[]logic.Says{{Who: bound.Unbound(), T: at, X: sig}},
				logic.KeySpeaksFor{K: bound.Key, T: at, Who: bound.Unbound()})
		}
	}
	for _, u := range sc.Utterances {
		at := logic.At(u.At)
		utts := make([]logic.Says, len(u.Signers))
		for i, s := range u.Signers {
			utts[i] = logic.Says{Who: s.Unbound(), T: at, X: logic.Sign(u.Content, s.Key)}
		}
		groupSays(logic.MemberOf{Who: sc.ThresholdCP, T: at, G: sc.Group}, u.At, utts)
	}

	// A22 for every formula the authority spoke: when it spoke a
	// falsehood it does not control it, and the instance is vacuous.
	auth := logic.P("Auth")
	for _, u := range sc.Spoken {
		ctrl := logic.Controls{Who: auth, T: logic.At(u.At), F: u.Body}
		says := logic.Says{Who: auth, T: logic.At(u.At), X: logic.AsMessage(u.Body)}
		c, err := logic.A22Jurisdiction(ctrl, says)
		add(logic.RuleA22Jurisdiction, u.At, c, err, ctrl, says)
	}
	return out
}

// CheckSoundness generates a run from the seed, asserts legality, checks
// every sampled instance, and returns the number of non-vacuous instances
// checked.
func CheckSoundness(seed int64, cfg Config) (checked int, err error) {
	r, sc := generateRun(seed, cfg)
	if err := CheckLegal(r); err != nil {
		return 0, fmt.Errorf("generated run is illegal: %w", err)
	}
	for _, in := range instances(r, sc) {
		vacuous, err := checkInstance(r, in)
		if err != nil {
			return checked, err
		}
		if !vacuous {
			checked++
		}
	}
	return checked, nil
}
