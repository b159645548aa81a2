// Command apicheck gates the public API surface on documentation: it
// parses the packages rooted at its directory arguments (default ".",
// non-recursive) and fails if any exported symbol — function, method on
// an exported type, type, constant, or variable — lacks a doc comment.
// Grouped const/var blocks may satisfy the check with a single block
// comment. It also fails on any godoc deprecation marker: this module is
// not go-gettable, so the tree is all the traffic there is — a replaced
// API is deleted and its callers migrated, never parked beside its
// successor. Test files and main packages are skipped.
//
// It is wired into `make apicheck` and the CI fast lane so an undocumented
// export can never land.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	bad := 0
	for _, dir := range dirs {
		n, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apicheck:", err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "apicheck: %d finding(s)\n", bad)
		os.Exit(1)
	}
}

func checkDir(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, pkg := range pkgs {
		if pkg.Name == "main" {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				bad += checkDecl(fset, decl)
			}
			for _, cg := range file.Comments {
				// Spelled in two halves so the tree-wide grep for the
				// marker stays empty.
				if strings.Contains("\n"+cg.Text(), "\nDeprecated"+":") {
					fmt.Fprintf(os.Stderr, "%s: deprecation marker: delete the old API and migrate its callers instead\n", fset.Position(cg.Pos()))
					bad++
				}
			}
		}
	}
	return bad, nil
}

func checkDecl(fset *token.FileSet, decl ast.Decl) int {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return 0
		}
		if d.Doc == nil {
			report(fset, d.Pos(), "func", funcName(d))
			return 1
		}
	case *ast.GenDecl:
		bad := 0
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
					report(fset, s.Pos(), "type", s.Name.Name)
					bad++
				}
			case *ast.ValueSpec:
				// A block doc comment covers every spec in the group.
				if s.Doc != nil || d.Doc != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						report(fset, name.Pos(), d.Tok.String(), name.Name)
						bad++
					}
				}
			}
		}
		return bad
	}
	return 0
}

// receiverExported reports whether d is a plain function or a method
// whose receiver type is exported (methods on unexported types are not
// part of the public surface).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(method) " + d.Name.Name
}

func report(fset *token.FileSet, pos token.Pos, kind, name string) {
	fmt.Fprintf(os.Stderr, "%s: exported %s %s has no doc comment\n", fset.Position(pos), kind, name)
}
