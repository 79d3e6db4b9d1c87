//go:build !race

// The dead-code scan type-checks every package of the module on one
// goroutine: there is nothing in it for the race detector to check, and
// under -race it takes several times as long, so it builds only without it.

package jqos_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllow names the declarations no non-test code reaches that stay
// anyway, keyed as the scan reports them, each with the reason.
var deadcodeAllow = map[string]string{
	"internal/rs.PackBatch":                        "the padded-shard reference encoder that tests in coding, dataplane and recovery share",
	"internal/recovery.Receiver.OutstandingLosses": "FuzzReceiver's bound on the state a receiver holds",
	"internal/transport.Relay.Forwarder":           "route installation on a socket relay: no command pushes routes to relays yet, and the cross-runtime oracle test builds its transit layout with it",
}

// deadcodeAPIAllow names the root package's exported functions and methods
// that no non-test code calls but that stay public on purpose, each with the
// reason.
var deadcodeAPIAllow = map[string]string{
	"jqos.DCNode.ID":              "a node's identity, the handle every topology call takes",
	"jqos.Host.ID":                "a node's identity, the handle every topology call takes",
	"jqos.LinkHandle.SetCapacity": "the per-link override Config.LinkCapacity documents, how a caller builds a bottleneck",
}

// deadcodeStdMethods are the methods of standard-library interfaces the
// module's types implement. A method with one of these names, or the name of
// a method of an interface the module declares, may be called through an
// interface, so the scan treats it as reached whenever its type is.
var deadcodeStdMethods = []string{
	"String", "Error", "ServeHTTP", "Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "Read", "Write", "Close",
}

// TestNoDeadCode fails on any function, package-level type, const or var
// that no non-test code reaches, and on any unexported struct field that
// non-test code writes but never reads. Code in bench/, cmd/ and examples/
// counts as a use; bench/ itself is never reported. Roots are main, init,
// the exported types, consts and vars of package jqos and methods named like
// interface methods (see deadcodeStdMethods); a reference counts only from
// code that is itself reached. A root-package function or method that only
// tests call is reported like any other, so the public API holds only what
// some program uses, and deadcodeAPIAllow. The two allowlists differ in one
// rule: a deadcodeAPIAllow entry is public on purpose, so what it uses and
// reads counts as reached; a deadcodeAllow entry only silences its own
// report, and a helper or field reached through it alone is still reported.
func TestNoDeadCode(t *testing.T) {
	for _, allow := range []map[string]string{deadcodeAllow, deadcodeAPIAllow} {
		if len(allow) > 5 {
			t.Fatalf("an allowlist has %d entries; it may hold at most 5", len(allow))
		}
	}
	found, err := scanDeadCode()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range found {
		seen[d.name] = true
		if deadcodeAllow[d.name] != "" || deadcodeAPIAllow[d.name] != "" {
			continue
		}
		if d.kind == "field" {
			t.Errorf("%s: field %s is never read outside tests", d.pos, d.name)
		} else {
			t.Errorf("%s: %s %s is reached only from tests (%d lines)", d.pos, d.kind, d.name, d.lines)
		}
	}
	for _, allow := range []map[string]string{deadcodeAllow, deadcodeAPIAllow} {
		for name := range allow {
			if !seen[name] {
				t.Errorf("allowlist entry %s is reached from non-test code or gone: delete the entry", name)
			}
		}
	}
}

type deadDecl struct {
	pos   token.Position
	kind  string // "func", "type", "const", "var" or "field"
	name  string // package path below the module, then the declared name
	lines int    // with the doc comment; 0 for a field
}

type listedPkg struct {
	Dir, ImportPath string
	GoFiles         []string
}

// deadcodeScan type-checks the module's packages from source, sharing one
// FileSet, one Info and one standard-library importer, so that an object
// has the same identity in every package that refers to it.
type deadcodeScan struct {
	module string
	fset   *token.FileSet
	info   *types.Info
	std    types.ImporterFrom
	listed map[string]*listedPkg
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
}

func (s *deadcodeScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *deadcodeScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	lp, ok := s.listed[path]
	if !ok {
		return s.std.ImportFrom(path, dir, mode)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	s.pkgs[path], s.files[path] = p, files
	return p, nil
}

// short names a package by its path below the module root.
func (s *deadcodeScan) short(p *types.Package) string {
	if p.Path() == s.module {
		return s.module
	}
	return strings.TrimPrefix(p.Path(), s.module+"/")
}

func scanDeadCode() ([]deadDecl, error) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	fset := token.NewFileSet()
	s := &deadcodeScan{
		module: "jqos",
		fset:   fset,
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		listed: map[string]*listedPkg{},
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
	}
	var paths []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := &listedPkg{}
		if err := dec.Decode(lp); err != nil {
			return nil, err
		}
		s.listed[lp.ImportPath] = lp
		paths = append(paths, lp.ImportPath)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := s.Import(path); err != nil {
			return nil, err
		}
	}
	keep := map[string]bool{}
	for name := range deadcodeAPIAllow {
		keep[name] = true
	}
	return s.dead(paths, keep), nil
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// decl is one top-level declaration: a function or method, or one spec of a
// type, const or var declaration.
type decl struct {
	pkg   string // path below the module root
	objs  []types.Object
	node  ast.Node
	doc   *ast.CommentGroup
	kind  string
	uses  []types.Object // module objects referenced from node
	reads []*types.Var   // fields read in node
}

func (s *deadcodeScan) dead(paths []string, keep map[string]bool) []deadDecl {
	var decls []*decl
	ifaceNames := map[string]bool{}
	for _, n := range deadcodeStdMethods {
		ifaceNames[n] = true
	}
	for _, path := range paths {
		for _, f := range s.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceNames[name.Name] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decls = append(decls, s.newDecl(path, "func", d, d.Doc, s.info.Defs[d.Name]))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						doc := d.Doc // a group's doc is its only spec's
						if len(d.Specs) > 1 {
							doc = nil
						}
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Doc != nil {
								doc = sp.Doc
							}
							decls = append(decls, s.newDecl(path, "type", sp, doc, s.info.Defs[sp.Name]))
						case *ast.ValueSpec:
							if sp.Doc != nil {
								doc = sp.Doc
							}
							var objs []types.Object
							for _, name := range sp.Names {
								objs = append(objs, s.info.Defs[name])
							}
							decls = append(decls, s.newDecl(path, d.Tok.String(), sp, doc, objs...))
						}
					}
				}
			}
		}
	}

	// Reach from the roots, a declaration at a time.
	byObj := map[types.Object]*decl{}
	ifaceMethods := map[*types.TypeName][]*types.Func{}
	for _, d := range decls {
		for _, o := range d.objs {
			byObj[o] = d
			if fn, ok := o.(*types.Func); ok && ifaceNames[fn.Name()] {
				if tn := recvTypeName(fn); tn != nil {
					ifaceMethods[tn] = append(ifaceMethods[tn], fn)
				}
			}
		}
	}
	live := map[*decl]bool{}
	var queue []*decl
	mark := func(d *decl) {
		if d != nil && !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range decls {
		for _, o := range d.objs {
			if s.isRoot(o) {
				mark(d)
			}
		}
	}
	reach := func() {
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			for _, o := range d.objs {
				if tn, ok := o.(*types.TypeName); ok {
					for _, m := range ifaceMethods[tn] {
						mark(byObj[m])
					}
				}
			}
			for _, u := range d.uses {
				mark(byObj[u])
			}
		}
	}
	reach()
	// An API kept on purpose (keep) reaches what it uses; it is still
	// reported, which is how a stale entry shows.
	kept := map[*decl]bool{}
	for _, d := range decls {
		if !live[d] && keep[d.pkg+"."+declName(d.objs)] {
			kept[d] = true
			mark(d)
		}
	}
	reach()

	var found []deadDecl
	read := map[*types.Var]bool{}
	for d := range live {
		for _, v := range d.reads {
			read[v] = true
		}
	}
	for _, d := range decls {
		if d.pkg == "bench" {
			continue
		}
		if !live[d] || kept[d] {
			start := d.node.Pos()
			if d.doc != nil {
				start = d.doc.Pos()
			}
			found = append(found, deadDecl{
				pos:   s.fset.Position(d.node.Pos()),
				kind:  d.kind,
				name:  d.pkg + "." + declName(d.objs),
				lines: s.fset.Position(d.node.End()).Line - s.fset.Position(start).Line + 1,
			})
			continue
		}
		tn, ok := d.objs[0].(*types.TypeName)
		if !ok || d.kind != "type" {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			v := st.Field(i)
			if v.Exported() || v.Embedded() || v.Name() == "_" || read[v] {
				continue
			}
			found = append(found, deadDecl{
				pos:  s.fset.Position(v.Pos()),
				kind: "field",
				name: d.pkg + "." + tn.Name() + "." + v.Name(),
			})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found
}

// newDecl records the module objects n refers to and the fields it reads.
// A field is written, not read, as the left side of an assignment, the
// operand of ++ or --, or a key in a composite literal; so is a struct or
// array field that such a write reaches into (x.stats.rx++ writes stats).
// A struct used as a map key has every field read by the hashing.
func (s *deadcodeScan) newDecl(path, kind string, n ast.Node, doc *ast.CommentGroup, objs ...types.Object) *decl {
	d := &decl{pkg: s.short(s.pkgs[path]), objs: objs, node: n, doc: doc, kind: kind}
	writes := map[*ast.Ident]bool{}
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			write(e.X)
		case *ast.SelectorExpr:
			writes[e.Sel] = true
			if _, ok := s.fieldType(e.X).(*types.Struct); ok {
				write(e.X)
			}
		case *ast.IndexExpr:
			if _, ok := s.fieldType(e.X).(*types.Array); ok {
				write(e.X)
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				write(l)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				writes[id] = true
			}
		case *ast.MapType:
			// Hashing a key reads every field of it.
			if st, ok := s.typeOf(n.Key).(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					d.reads = append(d.reads, st.Field(i))
				}
			}
		case *ast.Ident:
			o := s.info.Uses[n]
			if o == nil || o.Pkg() == nil || s.listed[o.Pkg().Path()] == nil {
				return true
			}
			o = origin(o)
			if v, ok := o.(*types.Var); ok && v.IsField() {
				if !writes[n] {
					d.reads = append(d.reads, v)
				}
				return true
			}
			d.uses = append(d.uses, o)
		}
		return true
	})
	return d
}

// fieldType is the underlying type of the field e selects, or nil.
func (s *deadcodeScan) fieldType(e ast.Expr) types.Type {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if v, ok := s.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			return v.Type().Underlying()
		}
	}
	return nil
}

// typeOf is the underlying type of the named type e refers to, or nil.
func (s *deadcodeScan) typeOf(e ast.Expr) types.Type {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	if id, ok := e.(*ast.Ident); ok {
		if tn, ok := s.info.Uses[id].(*types.TypeName); ok {
			return tn.Type().Underlying()
		}
	}
	return nil
}

// isRoot reports whether o is reached however the module is used: main and
// init, the exported types, consts and vars of the root package, and all of
// bench/. The root's exported functions and methods are reached only through
// a call.
func (s *deadcodeScan) isRoot(o types.Object) bool {
	if o == nil || o.Name() == "_" {
		return true
	}
	switch path := s.short(o.Pkg()); {
	case path == "bench":
		return true
	case path == s.module && o.Exported():
		_, fn := o.(*types.Func)
		return !fn
	}
	if fn, ok := o.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
		return fn.Name() == "main" || fn.Name() == "init"
	}
	return false
}

func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func declName(objs []types.Object) string {
	var names []string
	for _, o := range objs {
		if fn, ok := o.(*types.Func); ok {
			if tn := recvTypeName(fn); tn != nil {
				names = append(names, tn.Name()+"."+fn.Name())
				continue
			}
		}
		names = append(names, o.Name())
	}
	return strings.Join(names, ",")
}
