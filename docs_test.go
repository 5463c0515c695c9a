// Documentation gates, run as ordinary tests so CI and local `go test`
// both enforce them:
//
//   - TestGodocCoverage: every exported identifier in the audited packages
//     (internal/service, internal/trace, internal/cluster) carries a doc
//     comment — types, funcs, methods, consts/vars (group docs count),
//     struct fields and interface methods (inline comments count).
//   - TestDocsLinksResolve: every intra-repo markdown link in README and
//     docs/ points at a file that exists, and so does every bare mention
//     of a markdown file (PAPER.md, docs/API.md) outside the change log.
package hadoop2perf

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// godocAuditPackages are the directories whose exported surface must be
// fully documented.
var godocAuditPackages = []string{
	"internal/service",
	"internal/trace",
	"internal/cluster",
	"internal/workflow",
}

func TestGodocCoverage(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range godocAuditPackages {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, miss := range undocumented(file) {
					t.Errorf("%s: %s: exported %s lacks a doc comment",
						name, fset.Position(miss.pos), miss.what)
				}
			}
		}
	}
}

// missing identifies one undocumented exported identifier.
type missing struct {
	what string
	pos  token.Pos
}

// undocumented walks one file's top-level declarations and reports exported
// identifiers without documentation.
func undocumented(file *ast.File) []missing {
	var out []missing
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			if d.Doc == nil {
				out = append(out, missing{"func " + d.Name.Name, d.Pos()})
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if !sp.Name.IsExported() {
						continue
					}
					if !groupDoc && sp.Doc == nil && sp.Comment == nil {
						out = append(out, missing{"type " + sp.Name.Name, sp.Pos()})
					}
					out = append(out, undocumentedMembers(sp)...)
				case *ast.ValueSpec:
					// A doc comment on the group covers its members (the
					// standard pattern for enums and related constants).
					if groupDoc || sp.Doc != nil || sp.Comment != nil {
						continue
					}
					for _, n := range sp.Names {
						if n.IsExported() {
							out = append(out, missing{"const/var " + n.Name, n.Pos()})
						}
					}
				}
			}
		}
	}
	return out
}

// undocumentedMembers audits an exported type's struct fields and interface
// methods: each exported member needs a doc or inline comment, except
// embedded fields (documented on their own type).
func undocumentedMembers(sp *ast.TypeSpec) []missing {
	var fields *ast.FieldList
	var kind string
	switch tt := sp.Type.(type) {
	case *ast.StructType:
		fields, kind = tt.Fields, "field"
	case *ast.InterfaceType:
		fields, kind = tt.Methods, "method"
	default:
		return nil
	}
	var out []missing
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil || len(f.Names) == 0 {
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				out = append(out, missing{
					fmt.Sprintf("%s %s.%s", kind, sp.Name.Name, n.Name), n.Pos(),
				})
			}
		}
	}
	return out
}

// receiverExported reports whether a method's receiver base type is
// exported (methods on unexported types are not public API).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// mdLink matches markdown links and images; group 1 is the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// mdMention matches a bare markdown file name or repo-relative path in
// prose (PAPER.md, docs/API.md); group 1 is the path. Paths inside URLs
// and relative links are left to mdLink.
var mdMention = regexp.MustCompile(`(?:^|[^\w./-])((?:[\w-]+/)*[\w-]+\.md)\b`)

func TestDocsLinksResolve(t *testing.T) {
	files := []string{"README.md", "PERFORMANCE.md", "ROADMAP.md", "CHANGES.md", "PAPER.md", "EXPERIMENTS.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	checked := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // same-file anchor
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(f), target)); err != nil {
				t.Errorf("%s: broken intra-repo link %q", f, m[1])
			}
			checked++
		}
		if f == "CHANGES.md" {
			continue // a log: it names files as they were at the time
		}
		for _, m := range mdMention.FindAllStringSubmatch(string(raw), -1) {
			_, errHere := os.Stat(filepath.Join(filepath.Dir(f), m[1]))
			_, errRoot := os.Stat(m[1])
			if errHere != nil && errRoot != nil {
				t.Errorf("%s: mentions %q, which does not exist", f, m[1])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no intra-repo links found; the checker is miswired")
	}
}
