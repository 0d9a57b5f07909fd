package arch

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Roots names where a reachability walk starts, besides the main functions
// of commands and the init functions and blank variables of every package.
type Roots struct {
	// API packages: their exported names and the exported methods of their
	// exported types are reached.
	API []string
	// Whole packages: every declaration in them is reached.
	Whole []string
	// Uses are directories, relative to the module root, of code outside the
	// module's packages (test files, another module): every module
	// declaration their files refer to is reached.
	Uses []string
	// Extra declarations, written "import/path.Name" or
	// "import/path.Type.Method", are reached.
	Extra []string
}

// decl is one node of the declaration graph: a package-level function, type,
// variable or constant, or a method of a named type. A constant group
// numbered by iota is one node, since deleting one name renumbers the rest.
type decl struct {
	name string // as in Roots.Extra
	objs []types.Object
	node ast.Node
	info *types.Info
	recv *types.TypeName // a method's receiver type, else nil
	root bool            // an init function or a blank variable
}

// checked is one type-checked package.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks the module's packages from source, test files excluded,
// and imports the standard library from export data.
type loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checked
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != ModulePath && !strings.HasPrefix(path, ModulePath+"/") {
		return l.std.Import(path)
	}
	if c, ok := l.pkgs[path]; ok {
		return c.pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, ModulePath), "/")
	c, err := l.check(path, filepath.Join(l.root, filepath.FromSlash(rel)), false)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = c
	return c.pkg, nil
}

// check type-checks the files of dir the default build includes, test files
// only when tests is set.
func (l *loader) check(path, dir string, tests bool) (*checked, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := &checked{info: &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || (!tests && strings.HasSuffix(name, "_test.go")) {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: l}
	if c.pkg, err = conf.Check(path, l.fset, c.files, c.info); err != nil {
		return nil, fmt.Errorf("arch: type-checking %s: %w", path, err)
	}
	return c, nil
}

// Reachability type-checks the module under root and walks its declaration
// graph from roots. It returns each declaration the walk does not reach, with
// its position, and each Extra entry that names no declaration or that the
// walk reaches without the Extra roots (production code has come to use it).
//
// A declaration is reached when reached code refers to it. A method is also
// reached when its receiver type is reached and reached code names an
// interface with a method of that name — selecting the method through an
// interface or a type parameter, or using a function, variable or type of
// that interface type. (A method only the standard library calls, on a value
// handed to it as an empty interface, needs a blank assertion such as
// `var _ fmt.Stringer = T{}`.) Generic instantiations resolve to their origin.
func Reachability(root string, roots Roots) (unreached, stale []string, err error) {
	pkgs, err := ImportGraph(root)
	if err != nil {
		return nil, nil, err
	}
	l := &loader{root: root, fset: token.NewFileSet(), std: importer.Default(), pkgs: make(map[string]*checked)}
	g := &graph{declOf: make(map[types.Object]*decl), methods: make(map[*types.TypeName][]*decl), byName: make(map[string][]*decl)}
	for path := range pkgs {
		if _, err := l.Import(path); err != nil {
			return nil, nil, err
		}
	}
	for _, c := range l.pkgs {
		g.add(c)
	}

	w := &walk{g: g, reached: make(map[*decl]bool), dynamic: make(map[string]bool)}
	api, whole := set(roots.API), set(roots.Whole)
	for _, d := range g.decls {
		obj := d.objs[0]
		if d.root || whole[obj.Pkg().Path()] ||
			(obj.Pkg().Name() == "main" && obj.Name() == "main" && d.recv == nil) ||
			(api[obj.Pkg().Path()] && obj.Exported() && (d.recv == nil || d.recv.Exported())) {
			w.mark(d)
		}
	}
	for _, dir := range roots.Uses {
		c, err := l.check(ModulePath+"/"+dir, filepath.Join(root, filepath.FromSlash(dir)), true)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range c.files {
			w.scan(c.info, f)
		}
	}
	w.run()

	// Reaching more only adds to the production walk, so the Extra roots
	// extend it once its own fixpoint has told which entries it reaches.
	named := make(map[string]*decl)
	for _, d := range g.decls {
		named[d.name] = d
	}
	for _, entry := range roots.Extra {
		switch d := named[entry]; {
		case d == nil:
			stale = append(stale, entry+": not declared")
		case w.reached[d]:
			stale = append(stale, entry+": reached without the entry")
		default:
			w.mark(d)
		}
	}
	w.run()
	for _, d := range g.decls {
		if !w.reached[d] {
			unreached = append(unreached, fmt.Sprintf("%s (%s)", d.name, l.fset.Position(d.node.Pos())))
		}
	}
	sort.Strings(unreached)
	return unreached, stale, nil
}

func set(list []string) map[string]bool {
	m := make(map[string]bool, len(list))
	for _, s := range list {
		m[s] = true
	}
	return m
}

// graph indexes the module's declarations.
type graph struct {
	decls   []*decl
	declOf  map[types.Object]*decl
	methods map[*types.TypeName][]*decl // by receiver type
	byName  map[string][]*decl          // methods by name
}

// add indexes the declarations of one package.
func (g *graph) add(c *checked) {
	add := func(node ast.Node, idents ...*ast.Ident) *decl {
		d := &decl{node: node, info: c.info}
		for _, id := range idents {
			d.objs = append(d.objs, c.info.Defs[id])
			g.declOf[c.info.Defs[id]] = d
		}
		d.name = c.pkg.Path() + "." + d.objs[0].Name()
		d.root = d.objs[0].Name() == "_"
		g.decls = append(g.decls, d)
		return d
	}
	for _, f := range c.files {
		for _, fd := range f.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				d := add(fd, fd.Name)
				if fd.Recv == nil {
					d.root = fd.Name.Name == "init"
					continue
				}
				d.recv = recvName(d.objs[0].(*types.Func))
				d.name = c.pkg.Path() + "." + d.recv.Name() + "." + fd.Name.Name
				g.methods[d.recv] = append(g.methods[d.recv], d)
				g.byName[fd.Name.Name] = append(g.byName[fd.Name.Name], d)
			case *ast.GenDecl:
				if fd.Tok == token.CONST && fd.Lparen.IsValid() && slices.ContainsFunc(fd.Specs, func(s ast.Spec) bool {
					return len(s.(*ast.ValueSpec).Values) == 0
				}) {
					var names []*ast.Ident
					for _, spec := range fd.Specs {
						names = append(names, spec.(*ast.ValueSpec).Names...)
					}
					add(fd, names...)
					continue
				}
				for _, spec := range fd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(sp, sp.Name)
					case *ast.ValueSpec:
						add(sp, sp.Names...)
					}
				}
			}
		}
	}
}

// recvName is the origin type name of a method's receiver, nil when the
// receiver is an interface (a method of an interface or a constraint).
func recvName(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && !types.IsInterface(n) {
		return n.Origin().Obj()
	}
	return nil
}

// walk is a reachability fixpoint over a graph.
type walk struct {
	g       *graph
	reached map[*decl]bool
	dynamic map[string]bool // method names reached code may call dynamically
	todo    []*decl
}

func (w *walk) mark(d *decl) {
	if d == nil || w.reached[d] {
		return
	}
	w.reached[d] = true
	w.todo = append(w.todo, d)
	if tn, ok := d.objs[0].(*types.TypeName); ok {
		for _, m := range w.g.methods[tn] {
			if w.dynamic[m.objs[0].Name()] {
				w.mark(m)
			}
		}
	}
}

// call records that reached code may call the named method dynamically.
func (w *walk) call(name string) {
	if w.dynamic[name] {
		return
	}
	w.dynamic[name] = true
	for _, m := range w.g.byName[name] {
		if w.reached[w.g.declOf[m.recv]] {
			w.mark(m)
		}
	}
}

func (w *walk) run() {
	for len(w.todo) > 0 {
		d := w.todo[len(w.todo)-1]
		w.todo = w.todo[:len(w.todo)-1]
		w.scan(d.info, d.node)
	}
}

// scan reaches what node refers to and records the methods it may call
// dynamically: the interface methods it selects, and the methods of every
// interface among the types of the names it uses and of the parameters and
// results of the functions it uses.
func (w *walk) scan(info *types.Info, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] == nil {
			return true
		}
		obj := info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			if o.Type().(*types.Signature).Recv() != nil && recvName(o) == nil {
				w.call(o.Name())
			}
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		w.mark(w.g.declOf[obj])
		w.interfaceOf(obj.Type())
		if sig, ok := obj.Type().(*types.Signature); ok {
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					w.interfaceOf(tuple.At(i).Type())
				}
			}
		}
		return true
	})
}

// interfaceOf records the methods of t, or of t's elements for a slice (a
// variadic parameter), when t is an interface.
func (w *walk) interfaceOf(t types.Type) {
	if s, ok := t.(*types.Slice); ok {
		t = s.Elem()
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			w.call(iface.Method(i).Name())
		}
	}
}
