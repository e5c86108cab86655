package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// allowlist names the exported functions and methods that stay without a
// non-test caller, keyed as the unused-export check reports them.
var allowlist = map[string]string{
	"erlang.BalanceGuardHandover": "analytic oracle of the guard-channel policy tests",
	"cluster.NewRing":             "non-hex topology fixture of the sim and scenario tests",
}

// stdInterfaceMethods are the methods of the standard-library interfaces the
// code relies on (fmt.Stringer, error, errors.Unwrap, sort.Interface,
// heap.Interface, json.Marshaler, rand.Source): they are called through the
// interface, so a method of that name counts as used.
var stdInterfaceMethods = []string{"String", "Error", "Unwrap", "Len", "Less", "Swap", "Push", "Pop", "MarshalJSON", "Int63"}

// unusedExports type-checks every non-test package under root, the directory
// of a go.mod, and reports each exported function or method of a non-main
// package that no non-test file uses and that allow does not name, then each
// entry of allow that names no such export. A method whose name is a method
// of an interface type written under root, named or literal (as in a type
// assertion to interface{ NumCells() int }), or in stdInterfaceMethods,
// counts as used: it may be called through the interface. Uses are matched
// by object, not by name, so one type's Add does not keep another type's Add
// alive.
//
// Every directory under root gets the import path its place below the
// module path implies (testdata and dot- or underscore-prefixed directories
// are skipped, as the go tool does), so a nested module, like perfbench's
// repro/perfbench, must be named the same way. The standard library is
// type-checked from source.
func unusedExports(root string, allow map[string]string) ([]string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	_, rest, _ := strings.Cut(string(gomod), "module ")
	modPath, _, _ := strings.Cut(rest, "\n")
	modPath = strings.TrimSpace(modPath)
	c := &checker{
		fset:  token.NewFileSet(),
		dirs:  map[string]*build.Package{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(dir, 0); err == nil { // err: no Go files
			rel, _ := filepath.Rel(root, dir)
			c.dirs[path.Join(modPath, filepath.ToSlash(rel))] = bp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(c.dirs))
	for p := range c.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.Import(p); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	viaInterface := map[string]bool{}
	for _, name := range stdInterfaceMethods {
		viaInterface[name] = true
	}
	for _, files := range c.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							viaInterface[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	var problems []string
	allowed := map[string]bool{}
	for _, p := range paths {
		for _, f := range c.files[p] {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || !d.Name.IsExported() || f.Name.Name == "main" || used[c.info.Defs[d.Name]] {
					continue
				}
				key := f.Name.Name + "." + d.Name.Name
				if recv := c.info.Defs[d.Name].(*types.Func).Signature().Recv(); recv != nil {
					if viaInterface[d.Name.Name] {
						continue
					}
					t := recv.Type()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					key = f.Name.Name + "." + t.(*types.Named).Obj().Name() + "." + d.Name.Name
				}
				if _, ok := allow[key]; ok {
					allowed[key] = true
					continue
				}
				problems = append(problems, fmt.Sprintf("%s: %s has no caller outside tests", c.fset.Position(d.Name.Pos()), key))
			}
		}
	}
	// An entry that no longer names an unused export (deleted, renamed, or
	// given a caller) is stale and must go.
	var stale []string
	for key := range allow {
		if !allowed[key] {
			stale = append(stale, fmt.Sprintf("allowlist entry %s is not an unused export", key))
		}
	}
	sort.Strings(stale)
	return append(problems, stale...), nil
}

// checker type-checks the module's packages itself, so every use of a
// module object resolves to the one object its declaration defines; it
// hands standard-library imports to std.
type checker struct {
	fset  *token.FileSet
	dirs  map[string]*build.Package // import path -> non-test files
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
}

// Import type-checks the module package at path, once, and otherwise defers
// to the standard-library importer.
func (c *checker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	bp, ok := c.dirs[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path], c.files[path] = pkg, files
	return pkg, nil
}
