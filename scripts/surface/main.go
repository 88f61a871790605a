// Command surface is the public-surface lint: every package-level func,
// type, var and const, and every method, declared in non-test Go of the
// root package or under internal/ must be named by non-test Go somewhere
// else in the repository, or be listed in allow.txt with a category and a
// reason.
//
// Run it from the repository root:
//
//	go run ./scripts/surface   # fails, listing each violation
//
// A caller is any non-test Go in any module under the root (cmd/,
// examples/ and the nested benchmark/ module included), other than the
// name's own declaration; a method's receiver does not name its type. A
// method also counts as called when its type, or a pointer to it,
// implements an interface that declares the method: any named interface
// in a package the repository builds (error and fmt.Stringer included),
// or an interface literal in the repository's own code. A constraint
// counts as such an interface: a generic function calls the method of
// each member of its type set through it.
//
// The same pass enforces the architecture rules, one row each of the
// table in rules.go. A row has one of four kinds: use (an object, be it a
// func, method, method value, constant or field, may be used only from,
// or not from, listed packages, files or functions), import (a package
// or file may not import a path), literal (composite literals of a type
// may not appear in a scope) and name (declared names, and markers in
// comments and string literals, that may not appear). A row's reason is
// its documentation: a violation prints the row's name and reason.
//
// Packages are type-checked from source with go/types; the standard
// library is read from the export data `go list -export -deps -json`
// names, so the lint needs nothing outside the Go distribution.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// categories are the only reasons a name may stay without a caller.
// allow.txt's header says what each admits.
var categories = map[string]bool{"item": true, "oracle": true, "double": true, "paper": true}

// itemRef is what an item entry's reason must cite.
var itemRef = regexp.MustCompile(`\bitem [0-9]+`)

func main() {
	r, err := check(".", filepath.Join("scripts", "surface", "allow.txt"), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surface:", err)
		os.Exit(2)
	}
	r.enforce()
	for _, v := range r.violations {
		fmt.Fprintln(os.Stderr, "surface:", v)
	}
	if len(r.violations) > 0 {
		fmt.Fprintf(os.Stderr, "surface: %d violation(s); give each name a non-test caller, delete it, or allow-list it in scripts/surface/allow.txt; obey each rule row as its reason says\n", len(r.violations))
		os.Exit(1)
	}
	fmt.Printf("surface: ok: %d names, %d allow-listed, %d rule rows; %d exported package-level names are named only in their own package (%s)\n",
		r.checked, r.allowed, len(rules), len(r.ownOnly), byPackage(r.ownOnly))
}

// byPackage counts names (pkg.Name) per package, most first, as
// "logic 48, authz 23, …".
func byPackage(names []string) string {
	count := map[string]int{}
	for _, n := range names {
		pkg, _, _ := strings.Cut(n, ".")
		count[pkg]++
	}
	pkgs := make([]string, 0, len(count))
	for p := range count {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		a, b := pkgs[i], pkgs[j]
		return count[a] > count[b] || count[a] == count[b] && a < b
	})
	parts := make([]string, len(pkgs))
	for i, p := range pkgs {
		parts[i] = fmt.Sprintf("%s %d", p, count[p])
	}
	return strings.Join(parts, ", ")
}

type report struct {
	violations []string
	ownOnly    []string // exported package-level names that only their own package names
	checked    int
	allowed    int
	mod        string
	fset       *token.FileSet
	units      []unit
}

// listed is the part of `go list -json` output the lint reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// unit is one package checked from source.
type unit struct {
	path  string
	files []*ast.File
	info  *types.Info
}

// decl is one checked name.
type decl struct {
	name string // as written in allow.txt: pkg.Name or pkg.Type.Method
	obj  types.Object
	pkg  string // declaring import path
	from token.Pos
	to   token.Pos // the declaration's own span: uses inside it do not count
	used map[string]bool
}

// check runs the lint over every module under root, reading the
// allow-list at allow. extra maps a file path relative to root to Go
// source that replaces that file or joins its directory's package.
func check(root, allow string, extra map[string]string) (*report, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var pkgs []listed
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root {
			if n := d.Name(); n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
		}
		if d.IsDir() || d.Name() != "go.mod" {
			return nil
		}
		l, err := goList(filepath.Dir(p))
		pkgs = append(pkgs, l...)
		return err
	})
	if err != nil {
		return nil, err
	}
	abs, _ := filepath.Abs(root)

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	ld := &loader{
		src: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if f, ok := exports[path]; ok {
				return os.Open(f)
			}
			return nil, fmt.Errorf("no export data for %q", path)
		}),
	}

	// Type-check every non-standard package from source, dependencies
	// first (go list -deps order), so that each module package is one
	// *types.Package shared by all its importers.
	var all []unit
	for _, p := range pkgs {
		if p.Standard || ld.src[p.ImportPath] != nil {
			continue
		}
		dir, _ := filepath.Rel(abs, p.Dir)
		names := p.GoFiles
		for k := range extra {
			if filepath.Dir(k) == dir && !slices.Contains(names, filepath.Base(k)) {
				names = append(names[:len(names):len(names)], filepath.Base(k))
			}
		}
		var files []*ast.File
		for _, name := range names {
			var src any
			if s, ok := extra[filepath.Join(dir, name)]; ok {
				src = s
			}
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), src, parser.SkipObjectResolution|parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}
		tp, err := (&types.Config{Importer: ld}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		ld.src[p.ImportPath] = tp
		all = append(all, unit{p.ImportPath, files, info})
	}

	// The declarations under the rule, and the receiver lists whose
	// idents name a method's own type.
	decls := map[types.Object]*decl{}
	recvIdents := map[*ast.Ident]bool{}
	add := func(path string, id *ast.Ident, node ast.Node, info *types.Info) {
		if id.Name == "_" || id.Name == "init" {
			return
		}
		obj := info.Defs[id]
		decls[obj] = &decl{name: display(mod, obj), obj: obj, pkg: path, from: node.Pos(), to: node.End(), used: map[string]bool{}}
	}
	for _, c := range all {
		if c.path != mod && !strings.HasPrefix(c.path, mod+"/internal/") {
			continue
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(c.path, d.Name, d, c.info)
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recvIdents[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(c.path, s.Name, s, c.info)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(c.path, id, s, c.info)
							}
						}
					}
				}
			}
		}
	}

	// Uses, from every package's non-test files.
	for _, c := range all {
		for id, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			d := decls[obj]
			if d == nil || (d.from <= id.Pos() && id.Pos() < d.to) || recvIdents[id] {
				continue
			}
			d.used[c.path] = true
		}
	}

	// Methods that implement an interface declaring them are called
	// dynamically.
	ifaces := interfaces(ld, exports, all)
	for _, d := range decls {
		if !isMethod(d.obj) || len(d.used) > 0 {
			continue
		}
		fn := d.obj.(*types.Func)
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				d.used["interface"] = true
				break
			}
		}
	}

	entries, r, err := readAllow(allow)
	if err != nil {
		return nil, err
	}
	r.mod, r.fset, r.units = mod, fset, all
	byName := map[string]*decl{}
	for _, d := range decls {
		byName[d.name] = d
	}
	for _, e := range entries {
		d := byName[e.name]
		switch {
		case d == nil:
			r.violations = append(r.violations, fmt.Sprintf("%s: allow-list entry %s names no declaration", e.pos, e.name))
		case len(d.used) > 0:
			r.violations = append(r.violations, fmt.Sprintf("%s: allow-list entry %s is stale: %s has a caller now", e.pos, e.name, e.name))
		}
	}
	for _, d := range decls {
		r.checked++
		switch {
		case entries[d.name] != nil:
			r.allowed++
		case len(d.used) == 0:
			r.violations = append(r.violations, fmt.Sprintf("%s: %s has no non-test caller", fset.Position(d.obj.Pos()), d.name))
		case len(d.used) == 1 && d.used[d.pkg] && d.obj.Exported() && !isMethod(d.obj):
			r.ownOnly = append(r.ownOnly, d.name)
		}
	}
	sort.Strings(r.violations)
	sort.Strings(r.ownOnly)
	return r, nil
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// interfaces indexes, by method name, every interface with methods that
// the repository can name: the named interfaces of every package it
// builds, the interface literals in its own code, and error.
func interfaces(ld *loader, exports map[string]string, all []unit) map[string][]*types.Interface {
	seen := map[*types.Interface]bool{}
	out := map[string][]*types.Interface{}
	note := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	scope := func(p *types.Package) {
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				note(tn.Type())
			}
		}
	}
	note(types.Universe.Lookup("error").Type())
	// The errors package asserts these unnamed interfaces on the chain
	// errors.Is and errors.As walk.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", `package errors
type (
	unwrap      interface{ Unwrap() error }
	unwrapMulti interface{ Unwrap() []error }
	is          interface{ Is(error) bool }
	as          interface{ As(any) bool }
)`, 0)
	if err != nil {
		panic(err)
	}
	p, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	scope(p)
	for path := range exports {
		if p, err := ld.Import(path); err == nil {
			scope(p)
		}
	}
	for _, c := range all {
		scope(ld.src[c.path])
		for _, tv := range c.info.Types {
			note(tv.Type)
		}
		for _, obj := range c.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				note(tn.Type())
			}
		}
	}
	return out
}

// loader imports module packages from their source-checked form and
// everything else from export data.
type loader struct {
	src map[string]*types.Package
	gc  types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.src[path]; p != nil {
		return p, nil
	}
	return l.gc.Import(path)
}

// display names obj as allow.txt does: its package's pkgName, then the
// name, with a method's receiver type between them.
func display(mod string, obj types.Object) string {
	pkg := pkgName(mod, obj.Pkg().Path())
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return pkg + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return pkg + "." + obj.Name()
}

// pkgName is an import path relative to the module's internal/ directory
// (the module path for the root package, the full path elsewhere).
func pkgName(mod, path string) string {
	if path == mod {
		return path
	}
	return strings.TrimPrefix(path, mod+"/internal/")
}

func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(b); err == nil && m != nil {
		return string(m[1]), nil
	}
	return "", fmt.Errorf("%s: no module line (%v)", gomod, err)
}

type entry struct{ name, category, reason, pos string }

// readAllow parses allow.txt: `name category reason`, one entry a line;
// blank lines and lines starting with # are skipped. Malformed entries
// are violations in the returned report.
func readAllow(path string) (map[string]*entry, *report, error) {
	r := &report{}
	entries := map[string]*entry{}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		e := &entry{name: f[0], pos: fmt.Sprintf("%s:%d", path, n)}
		if len(f) > 1 {
			e.category, e.reason = f[1], strings.Join(f[2:], " ")
		}
		switch {
		case !categories[e.category]:
			r.violations = append(r.violations, fmt.Sprintf("%s: allow-list entry %s has category %q, want one of item, oracle, double, paper", e.pos, e.name, e.category))
		case e.reason == "":
			r.violations = append(r.violations, fmt.Sprintf("%s: allow-list entry %s gives no reason", e.pos, e.name))
		case e.category == "item" && !itemRef.MatchString(e.reason):
			r.violations = append(r.violations, fmt.Sprintf("%s: allow-list entry %s is category item but its reason cites no \"item N\"", e.pos, e.name))
		case entries[e.name] != nil:
			r.violations = append(r.violations, fmt.Sprintf("%s: allow-list entry %s repeats %s", e.pos, e.name, entries[e.name].pos))
		}
		if entries[e.name] == nil {
			entries[e.name] = e
		}
	}
	return entries, r, sc.Err()
}
