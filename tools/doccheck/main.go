// Command doccheck runs the repository's two API lint checks and exits
// non-zero listing the offenders of either.
//
// The doc-comment check, in the spirit of the (deprecated) golint
// exported-comment check, parses internal/ and cmd/: every exported
// identifier in non-test files — functions, types, constants, variables, and
// methods on exported receiver types — must carry a doc comment, and every
// package must carry a package comment — library packages a godoc package
// comment, main packages (the commands of cmd/) a command comment describing
// what the program does.
//
// The unused-export check type-checks every non-test package of the module,
// perfbench/ included, and reports each exported function or method of a
// library package that no non-test file uses. Uses are matched
// by object, not by name, so an Add method is not kept alive by another
// type's Add. A method named like a method of an interface written in the
// repository, named or literal, or of a standard-library interface the code
// relies on counts as used. The names on the short allowlist in unused.go
// are exempt, each with its reason, and an entry that names no unused
// export is reported as stale.
//
// Both checks read paths relative to the working directory, so run it from
// the repository root.
//
// Usage:
//
//	go run ./tools/doccheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var problems []string
	pkgs := map[string]*pkgDoc{} // directory -> package-comment state
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			problems = append(problems, checkFile(path, pkgs)...)
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
	}
	dirsSeen := make([]string, 0, len(pkgs))
	for dir := range pkgs {
		dirsSeen = append(dirsSeen, dir)
	}
	sort.Strings(dirsSeen)
	for _, dir := range dirsSeen {
		p := pkgs[dir]
		if p.documented {
			continue
		}
		// Main packages are held to the same bar as libraries: a command
		// without a command comment is undocumented in godoc exactly like a
		// library package without a package comment.
		kind := "package " + p.name
		if p.name == "main" {
			kind = "command (package main)"
		}
		problems = append(problems, fmt.Sprintf("%s: %s lacks a package comment", dir, kind))
	}
	unused, err := unusedExports(".", allowlist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	problems = append(problems, unused...)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// pkgDoc tracks whether any file of a package carries the package comment.
type pkgDoc struct {
	name       string
	documented bool
}

// checkFile parses one source file, records the package-comment state of its
// directory, and returns one message per undocumented exported identifier.
func checkFile(path string, pkgs map[string]*pkgDoc) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", path, err)}
	}
	dir := filepath.Dir(path)
	if pkgs[dir] == nil {
		pkgs[dir] = &pkgDoc{name: f.Name.Name}
	}
	if f.Doc != nil {
		pkgs[dir].documented = true
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		problems = append(problems, fmt.Sprintf("%s: %s %s lacks a doc comment", fset.Position(pos), kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue // method on an unexported type: not part of the API
			}
			report(d.Pos(), "func", d.Name.Name)
		case *ast.GenDecl:
			// A doc comment on the grouped declaration covers its specs
			// (the const-block idiom); individual doc or line comments also
			// count.
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedReceiver reports whether a method receiver names an exported type.
func exportedReceiver(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
