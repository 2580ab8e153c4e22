package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedDocCoverage fails when an exported identifier in the
// public facade (repro.go), the engine (internal/engine) or the job
// API's service packages (internal/mapdsrv, internal/fleet,
// internal/mapclient) lacks a doc comment. These are the repository's
// API: repro.go is what library users import, internal/engine is what
// cmd/mapd and cmd/mapbench are built on, and the three service
// packages define the HTTP contract mapd and maprouter share. CI runs
// this in the lint job, so an undocumented export is a build break,
// not a review nit.
func TestExportedDocCoverage(t *testing.T) {
	var missing []string
	missing = append(missing, undocumentedExports(t, "repro.go")...)
	for _, pkg := range []string{"engine", "mapdsrv", "fleet", "mapclient"} {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			missing = append(missing, undocumentedExports(t, f)...)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("undocumented exported symbol: %s", m)
	}
}

// undocumentedExports parses one file and returns a "file: Symbol" line
// for every exported declaration without a doc comment. Exported
// fields of exported structs and exported methods count too; grouped
// var/const specs are covered by a doc comment on either the group or
// the spec.
func undocumentedExports(t *testing.T, path string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	var missing []string
	report := func(name string) {
		missing = append(missing, fmt.Sprintf("%s: %s", path, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) > 0 {
				name = recvName(d.Recv.List[0].Type) + "." + name
			}
			report(name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Name.Name)
					}
					if st, ok := s.Type.(*ast.StructType); ok {
						missing = append(missing, undocumentedFields(fset, path, s.Name.Name, st)...)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Name)
						}
					}
				}
			}
		}
	}
	return missing
}

// undocumentedFields reports exported struct fields that carry neither
// their own doc or line comment nor continue a documented run: fields
// on consecutive lines form one run, and a doc comment on the run's
// first field covers the whole run (the declaration style this
// repository uses for related fields, e.g. a min/mean/max or cap/len
// cluster). A blank line starts a new run that needs its own comment.
func undocumentedFields(fset *token.FileSet, path, typeName string, st *ast.StructType) []string {
	var missing []string
	covered := false
	prevEnd := -2
	for _, field := range st.Fields.List {
		start := fset.Position(field.Pos()).Line
		if field.Doc != nil {
			start = fset.Position(field.Doc.Pos()).Line
		}
		if field.Doc != nil || field.Comment != nil {
			covered = true
		} else if start > prevEnd+1 {
			covered = false // blank line: a new, so-far-undocumented run
		}
		prevEnd = fset.Position(field.End()).Line
		if covered {
			continue
		}
		for _, n := range field.Names {
			if n.IsExported() {
				missing = append(missing, fmt.Sprintf("%s: %s.%s", path, typeName, n.Name))
			}
		}
	}
	return missing
}

// recvName renders a method receiver type for error messages.
func recvName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvName(t.X)
	}
	return "?"
}
