package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strconv"
	"strings"
)

// A rule is one row of the table; the package comment gives the kinds.
// Names, types and places are in display form. what, in and except are
// path.Match patterns; one that starts with * also spans directories.
type rule struct {
	name   string   // printed with each violation, with reason
	kind   string   // "use", "import", "literal" or "name"
	what   []string // objects, import paths, literal types or declared names
	arg    string   // use: only calls with an argument of this type, or that reads this object
	targs  []string // use: of a generic function, only instances with one of these type arguments
	marks  []string // name: text refused in comments and string literals
	in     []string // the packages, files (pkg/file.go) or functions it holds in; none: all
	except []string // where it does not; with max, where at most max uses may stand
	max    int
	frozen bool // it holds in the frozen benchmark/ module too
	reason string
}

// rules is the table. Each reason says what its row keeps.
var rules = []rule{
	{name: "wire-codec", kind: "import", what: []string{"encoding/gob", "encoding/json"},
		in: []string{"transport", "daemon/pipeline.go", "daemon/client.go", "daemon/codec.go"},
		reason: "frames, commands and replies are hand-encoded (internal/wirefmt); a reflective codec on the wire path brings back the " +
			"per-message decoder compilation and the double parse of the signed request that the binary codec removed"},
	{name: "hot-path-imports", kind: "import", what: []string{"encoding/json", "fmt", "reflect"}, in: []string{"authz/decode.go", "pki/fingerprint.go"},
		reason: "the access-request decoder and the certificate fingerprint run on every request: no reflection, no fmt"},
	{name: "one-request-parser", kind: "use", what: []string{"encoding/json.Unmarshal", "encoding/json.Decoder.Decode"}, arg: "*authz.AccessRequest",
		reason: "one parser for the signed request: authz.DecodeAccessRequest; JSON-decoding into an AccessRequest is a second one"},
	{name: "one-signed-form", kind: "use", what: []string{"encoding/json.Marshal", "encoding/json.NewEncoder"}, in: []string{"pki"},
		except: []string{"pki.Marshal"},
		reason: "signed bytes come from the appenders (pki's appendSigned: kind tag first, every field length-prefixed), never from " +
			"a reflective encoder; pki.Marshal's JSON is the form the WAL journals, which no signature covers"},
	{name: "one-path/deprecated", kind: "name", marks: []string{"// Deprecated:", "compatibility shim"},
		reason: "a deprecated wrapper or a compatibility shim is a second entry point to keep tested and documented; delete the old " +
			"one in the change that adds the new one"},
	{name: "one-path/setters", kind: "name", what: []string{"authz.Server.Set*"},
		except: []string{"authz.Server.SetBatchVerify", "authz.Server.SetPooling", "authz.Server.SetResidualsEnabled", "authz.Server.SetJournal"},
		reason: "each authz.Server runtime switch is a second decision path, so this list may only shrink: the three switches go with " +
			"the next benchmark issue, which is what still calls them (SetResidualsEnabled selects the oracle, not a serving path); " +
			"SetJournal attaches the WAL, wiring, not a switch"},
	{name: "one-return-path/frame-address", kind: "name", what: []string{"*.returnAddr"}, marks: []string{`"cmd@`, "returnAddr"},
		reason: "command replies and replication frames go back on the connection their command or hello arrived on (transport " +
			"Reply); an address carried in a frame (the old cmd@addr kind, a hello's address) is a second return path that dials " +
			"whatever a sender names"},
	{name: "one-return-path/add-peer", kind: "use", what: []string{"*.AddPeer"}, except: []string{"transport", "daemon.Dial", "daemon.Follower.Listen"},
		reason: "outside internal/transport only daemon.Dial and Follower.Listen register a peer address, each from its own " +
			"configuration; any other is a return path a frame can name"},
	{name: "one-issuance-point", kind: "use", what: []string{"*.IssueIdentity", "pki.Issue"}, targs: []string{"pki.Identity"},
		except: []string{"authority", "pki", "coalition.member.issue", "sim/load.LoadFixture.identityOf"},
		reason: "a domain issues a user's identity certificate at enrolment and holds it for the user's requests (coalition.member." +
			"issue, reached from AddUser and IdentityOf's re-issue path; internal/sim/load's fixture issues each principal's once " +
			"and holds it the same way; internal/authority and internal/pki define issuance, pki.Issue of a pki.Identity); an " +
			"issuance anywhere else is a " +
			"per-request mint: a CA signature per signer per request and a never-seen certificate for the verified-certificate cache"},
	{name: "rekey-path", kind: "use", what: []string{"*.*.Join", "*.*.Leave"}, in: []string{"daemon", "jointadmin/cmd/coalitiond"},
		reason: "the daemon runs a join or leave as PrepareJoin/PrepareLeave (the AA's new sharing, and a CA key for a domain " +
			"the coalition has not kept one for), then Alliance.Commit and the re-anchor (Daemon.rekey), timing each phase in " +
			"daemon_rekey_seconds; Join or Leave, called or as a method value, on the alliance or its coalition, fuses the two, " +
			"and the preparation could then never leave the dynamics gate (ROADMAP item 10(b))"},
	{name: "one-ca-keygen", kind: "use", what: []string{"authority.NewDomainCA"},
		except: []string{"coalition.Coalition.domainCA", "sim/load.NewLoadFixture"},
		reason: "a domain's identity CA outlives its membership: coalition.Coalition.domainCA draws the key of every CA the " +
			"coalition anchors, for a domain it keeps no CA for, and a rejoin re-admits a kept one " +
			"(internal/sim/load's fixture makes its own three); a NewDomainCA elsewhere is a second CA for a domain, an RSA " +
			"keygen on a join that needs none, and a key whose revocations no rule keeps from being re-admitted"},
	{name: "exponent/private", kind: "use", what: []string{"math/big.Int.Exp"},
		except: []string{"sharedrsa.CombineExact", "sharedrsa.crtHalf", "sharedrsa.BatchVerify",
			"sharedrsa.biprimal", "sharedrsa.LockBox.Sign", "authority.stolenKeySigner.Sign", "jointadmin/cmd/experiments.canSign",
			"sharedrsa.probablyPrime"},
		reason: "user and domain-CA keys sign through sharedrsa.CRTKey: two half-size exponentiations, checked by the public-" +
			"exponent kernel before release; crtHalf's Exp serves only halves of more than four words (a 512-bit key's run " +
			"on the four-word Montgomery kernel, mont4.expHalf); a shared key's partials H(M)^d_i run on the Montgomery kernel, from one power " +
			"table per signature (sharedrsa.partials); a math/big Exp elsewhere is a full-width private-key path that skips " +
			"the check, or a share raised on a second path, unless it cannot be either: keygen's biprime test, the dealer's " +
			"lock box, Case I's signer, BatchVerify's blinding powers, CombineExact's H^k, the experiments' ablation and the " +
			"prime search's base-2 test (2^(n−1) mod n: an exponent of n−1, no key involved)"},
	{name: "exponent/public-arg", kind: "use", what: []string{"math/big.Int.Exp"}, arg: "sharedrsa.PublicKey.E",
		reason: "every S^e mod N (Verify, Combine's trial correction, BatchVerify's product checks) goes through sharedrsa's " +
			"Montgomery kernel (montgomery.go); a math/big Exp by a public exponent is a second, slower verification path, and " +
			"the commands and examples verify with sharedrsa.Verify too"},
	{name: "exponent/public-read", kind: "use", what: []string{"sharedrsa.PublicKey.E"},
		in: []string{"sharedrsa.CombineExact", "sharedrsa.crtHalf", "sharedrsa.biprimal",
			"sharedrsa.LockBox.Sign", "authority.stolenKeySigner.Sign", "jointadmin/cmd/experiments.canSign"},
		reason: "the functions that may call Exp raise to private or trial exponents only (a shared key's partials are not " +
			"among them: they run on the Montgomery kernel); reading a public exponent there is an " +
			"Exp by e (e := pk.E; x.Exp(m, e, n)); BatchVerify reads pk.E for the kernel and calls Exp, so it is the named hole " +
			"until ROADMAP item 3 deletes it"},
	{name: "one-prime-search", kind: "use", what: []string{"crypto/rand.Prime", "math/big.Int.ProbablyPrime"},
		except: []string{"sharedrsa.probablyPrime", "sharedrsa.Config.withDefaults"},
		reason: "every prime a key, a CA or the BGW field draws comes from sharedrsa's sieved search (prime.go), whose acceptance " +
			"step runs the one ProbablyPrime(20) a returned prime must pass; crypto/rand.Prime or another ProbablyPrime loop is a " +
			"second, slower prime search that a seeded source does not repeat (Config.withDefaults' check that e is prime is not one)"},
	{name: "one-partial-loop", kind: "use", what: []string{"sharedrsa.PartialSign"},
		except: []string{"jointadmin/cmd/experiments.e2JointSignature"},
		reason: "a joint signature's partials are computed in one place, sharedrsa.partials (signJointly, for SignJointly and " +
			"Redistribute's trial signature, and QuorumSign): from one table of H(M)'s powers, concurrently, in share order, " +
			"and for the coalition AA only after every domain has consented (authority.consensusSigner asks each Consents " +
			"first); a PartialSign loop elsewhere is a second, sequential signing path that builds a table per share (E2's " +
			"ablation computes the partials it hands both Combine and CombineExact)"},
	{name: "one-decider/replay", kind: "use", what: []string{"authz.Server.replay"}, except: []string{"authz.Server.authorizeAt"}, max: 1, frozen: true,
		reason: "the residual decider decides every request Authorize serves; the 4-step replay is its oracle, entered once, where " +
			"authorizeAt honours SetResidualsEnabled(false): a second call site is a second serving path"},
	{name: "one-decider/pooled-forks", kind: "name", what: []string{"*.ForkPooled", "*.Recycle", "*.cloneInto"},
		marks: []string{"ForkPooled", "Recycle(", "cloneInto"}, frozen: true,
		reason: "nothing pools engine forks any more; the fork pool existed only for the replay that every cold request used to fall back to"},
	{name: "one-decider/axioms", kind: "use", what: []string{"logic.A3[4-8]*"}, except: []string{"logic"},
		reason: `both deciders conclude "G says X" through logic.DeriveGroupSays; an A34-A38 axiom used outside internal/logic is a ` +
			"second dispatch, and the two would drift apart on the membership shapes one of them skips"},
	{name: "one-decider/walk-budget", kind: "use", what: []string{"delegation.Unbounded", "logic.unboundedBudget"},
		except: []string{"logic.NewRelationWalk", "delegation.Reachable"},
		reason: "the relation closure is walked by logic.RelationWalk alone (the store, the residue compiler and the residue); " +
			"delegation.Reachable is the independent oracle the property tests compare it with; a budget seed anywhere else is a third walk"},
	{name: "one-idealizer", kind: "literal", in: []string{"authz"},
		what: []string{"logic.Not", "logic.MemberOf", "logic.GroupSpeaksFor", "logic.GroupGraphEdge", "logic.Delegates"},
		reason: "WAL replay and replication install each recorded certificate's conclusion with logic.Engine.Install, from the " +
			"pki.Idealize form the live derivation used; a certificate-belief literal built in internal/authz is a hand-written " +
			"mirror of one of them, free to drift (freshEngine's anchor KeySpeaksFor assumptions are not one)"},
	{name: "one-belief-table/verify", kind: "use", what: []string{"pki.Verify"}, in: []string{"authz"},
		targs:  []string{"pki.GroupLink", "pki.Delegation", "pki.GroupGraphLink", "pki.Revocation", "pki.IdentityRevocation", "pki.CRL"},
		except: []string{"authz/beliefs.go", "authz.Server.verifyDelegatedMembership"},
		reason: "the live acceptance, a re-anchoring's carry and replay read a belief certificate through its kind's row of the " +
			"belief table (authz/beliefs.go), which alone checks its signature, and a revocation list is checked there too; a " +
			"check elsewhere is a second reading of a kind, free to drift from the others (verifyDelegatedMembership checks a " +
			"request's leaf certificate, not a belief)"},
	{name: "one-belief-table/decode", kind: "use", what: []string{"pki.Unmarshal"}, in: []string{"authz"},
		except: []string{"authz/beliefs.go", "authz.Server.verifyDelegatedMembership"},
		reason: "a belief certificate is decoded by its kind's row of the belief table (authz/beliefs.go) alone, for the live " +
			"acceptance, a re-anchoring's carry and replay alike; a decode elsewhere is a second reading of a kind"},
	{name: "whole-proof-render", kind: "use", what: []string{"logic.Proof.String"}, in: []string{"authz"},
		except: []string{"authz.newResidueMemo"},
		reason: "a whole proof's rendering grows with the server's history: internal/authz renders one whole only for the snapshot's " +
			"shared base, once per snapshot on first need (newResidueMemo's baseTrace); a decision's audit entry keeps its proof for " +
			"the log to render when read, and a revocation's keeps its own derivation (logic.Proof.Justification), not every step " +
			"since the key epoch began"},
	{name: "one-frame-format/json", kind: "use", what: []string{"encoding/json.Marshal", "encoding/json.Unmarshal"}, in: []string{"wal"},
		except: []string{"wal.encodeFrame", "wal.Scan", "wal.Dump"},
		reason: "the log and the snapshot store one format, CRC-framed records: encodeFrame is its only encoder and Scan, which " +
			"checks every frame, its only decoder (Dump's epoch peek reads a record Scan decoded); a JSON document elsewhere in " +
			"internal/wal is a second format at rest, with no checksum for replay's skipped signature checks to stand on"},
	{name: "one-frame-format/encode", kind: "use", what: []string{"wal.encodeFrame"}, except: []string{"wal.Log.Append"},
		reason: "a record is encoded once, when Append writes it; compaction and the snapshot handoff copy its stored frame, and " +
			"a second encoding would be a second byte string for the same record (ROADMAP item 24)"},
	{name: "logic-ownership", kind: "import", what: []string{"sync", "sync/atomic", "reflect"}, in: []string{"logic"},
		reason: "a sealed engine is read-only and shared, and an unsealed engine or a fork has one owner (logic.Engine.Seal); nothing " +
			"in internal/logic is locked or memoized process-wide, so a sync or reflect import there is a lock, an atomic or a cache coming back"},
}

// A place is where a use, import, literal or name stands.
type place struct {
	pkg, file, fn string // display forms: pkgName, pkg/file.go, the enclosing function
	frozen        bool   // in the benchmark/ module
}

func (at place) in(pats []string) bool {
	return match(pats, at.pkg) || match(pats, at.file) || match(pats, at.fn)
}

func match(pats []string, s string) bool {
	return slices.ContainsFunc(pats, func(p string) bool {
		ok, _ := path.Match(p, s)
		deep, _ := path.Match(p, path.Base(s))
		return ok || deep && strings.HasPrefix(p, "*")
	})
}

// enforce adds a violation for each use, import, literal or name that a
// row of rules refuses.
func (r *report) enforce() {
	owner := map[types.Object]string{} // a struct field's named type
	for _, c := range r.units {
		for _, obj := range c.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := range st.NumFields() {
						owner[st.Field(i)] = tn.Name() + "."
					}
				}
			}
		}
	}
	name := func(obj types.Object) string {
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if o, ok := owner[obj]; ok {
			return pkgName(r.mod, obj.Pkg().Path()) + "." + o + obj.Name()
		}
		return display(r.mod, obj)
	}
	qual := func(p *types.Package) string { return pkgName(r.mod, p.Path()) }
	uses := map[*rule]int{}
	refuse := func(rl *rule, at place, pos token.Pos, what string) {
		if at.frozen && !rl.frozen || len(rl.in) > 0 && !at.in(rl.in) {
			return
		}
		if at.in(rl.except) {
			if uses[rl]++; rl.max == 0 || uses[rl] <= rl.max {
				return
			}
			what += fmt.Sprintf(" (use %d; at most %d may stand)", uses[rl], rl.max)
		}
		r.violations = append(r.violations, fmt.Sprintf("%s: rule %s: %s: %s", r.fset.Position(pos), rl.name, what, rl.reason))
	}
	mark := func(text string, at place, pos token.Pos) {
		if at.pkg == r.mod+"/scripts/surface" {
			return // the table spells every marker
		}
		for i, rl := range rules {
			for _, m := range rl.marks {
				if strings.Contains(text, m) {
					refuse(&rules[i], at, pos, "contains "+m)
				}
			}
		}
	}
	for _, c := range r.units {
		calls := map[*ast.Ident]*ast.CallExpr{}
		// reads reports whether e has type t or reads an object named t.
		reads := func(e ast.Expr, t string) (hit bool) {
			hit = match([]string{t}, types.TypeString(c.info.TypeOf(e), qual))
			ast.Inspect(e, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				hit = hit || ok && match([]string{t}, name(c.info.Uses[id]))
				return !hit
			})
			return hit
		}
		// typeArgs lists the type arguments id instantiates a generic
		// function or type with; none for any other identifier.
		typeArgs := func(id *ast.Ident) (out []string) {
			if inst, ok := c.info.Instances[id]; ok {
				for i := range inst.TypeArgs.Len() {
					out = append(out, types.TypeString(inst.TypeArgs.At(i), qual))
				}
			}
			return out
		}
		see := func(kind, what string, at place, pos token.Pos, call *ast.CallExpr, targs []string) {
			for i, rl := range rules {
				if rl.kind == kind && what != "" && match(rl.what, what) &&
					(rl.arg == "" || call != nil && slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return reads(a, rl.arg) })) &&
					(len(rl.targs) == 0 || len(targs) == 0 || slices.ContainsFunc(targs, func(t string) bool { return match(rl.targs, t) })) {
					refuse(&rules[i], at, pos, kind+" "+what)
				}
			}
		}
		for _, f := range c.files {
			at := place{pkg: pkgName(r.mod, c.path), frozen: strings.HasPrefix(c.path+"/", r.mod+"/benchmark/")}
			at.file = at.pkg + "/" + path.Base(r.fset.File(f.Pos()).Name())
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				see("import", p, at, imp.Pos(), nil, nil)
			}
			for _, g := range f.Comments {
				for _, cm := range g.List {
					mark(cm.Text, at, cm.Pos())
				}
			}
			for _, d := range f.Decls {
				at.fn = ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					at.fn = name(c.info.Defs[fd.Name])
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						switch fun := ast.Unparen(n.Fun).(type) {
						case *ast.Ident:
							calls[fun] = n
						case *ast.SelectorExpr:
							calls[fun.Sel] = n
						}
					case *ast.Ident:
						see("use", name(c.info.Uses[n]), at, n.Pos(), calls[n], typeArgs(n))
						see("name", name(c.info.Defs[n]), at, n.Pos(), nil, nil)
					case *ast.CompositeLit:
						see("literal", types.TypeString(c.info.TypeOf(n), qual), at, n.Pos(), nil, nil)
					case *ast.BasicLit:
						if n.Kind == token.STRING {
							mark(n.Value, at, n.Pos())
						}
					}
					return true
				})
			}
		}
	}
}
