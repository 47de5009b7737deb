// Package manifest models Android application manifests: the package
// name, declared components (activities, services, receivers, providers)
// with their exported flags and intent filters, and the permissions the
// app requests.
//
// The model round-trips through an AndroidManifest.xml-shaped document via
// encoding/xml so that the Figure 2 corpus study can run the same
// "reverse-engineer the APK, inspect the manifest" pipeline the paper ran
// with APKTool.
package manifest

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"
)

// Well-known permission strings used throughout the paper.
const (
	PermWakeLock      = "android.permission.WAKE_LOCK"
	PermWriteSettings = "android.permission.WRITE_SETTINGS"
)

// ComponentKind distinguishes the four Android component types.
type ComponentKind int

const (
	// KindActivity is a UI screen component.
	KindActivity ComponentKind = iota + 1
	// KindService is a background component.
	KindService
	// KindReceiver is a broadcast receiver.
	KindReceiver
	// KindProvider is a content provider.
	KindProvider
)

var kindNames = map[ComponentKind]string{
	KindActivity: "activity",
	KindService:  "service",
	KindReceiver: "receiver",
	KindProvider: "provider",
}

// String returns the manifest tag name for the kind.
func (k ComponentKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("ComponentKind(%d)", int(k))
}

// IntentFilter declares the implicit-intent actions and categories a
// component responds to.
type IntentFilter struct {
	Actions    []string
	Categories []string
}

// Matches reports whether the filter accepts an implicit intent with the
// given action and categories. Every requested category must be declared
// by the filter, mirroring Android's resolution rule.
func (f IntentFilter) Matches(action string, categories []string) bool {
	found := false
	for _, a := range f.Actions {
		if a == action {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	for _, want := range categories {
		ok := false
		for _, have := range f.Categories {
			if have == want {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Component is one declared app component.
type Component struct {
	Kind     ComponentKind
	Name     string // short name, unique within the app, e.g. "MainActivity"
	Exported bool
	Filters  []IntentFilter
}

// Manifest describes one application.
type Manifest struct {
	Package     string // e.g. "com.example.message"
	Label       string // human-readable name, e.g. "Message"
	Category    string // Play-store category, e.g. "Communication"
	Permissions []string
	Components  []Component
}

// Validate checks structural invariants: non-empty package, unique
// component names, and that every component has a kind and name.
func (m *Manifest) Validate() error {
	if m.Package == "" {
		return fmt.Errorf("manifest: empty package name")
	}
	seen := make(map[string]bool, len(m.Components))
	for _, c := range m.Components {
		if c.Name == "" {
			return fmt.Errorf("manifest %s: component with empty name", m.Package)
		}
		if _, ok := kindNames[c.Kind]; !ok {
			return fmt.Errorf("manifest %s: component %s has invalid kind", m.Package, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("manifest %s: duplicate component %s", m.Package, c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// Component returns the named component, or nil if not declared.
func (m *Manifest) Component(name string) *Component {
	if i := m.Index(name); i >= 0 {
		return &m.Components[i]
	}
	return nil
}

// Index returns the position of the named component in Components, or
// -1 if it is not declared.
func (m *Manifest) Index(name string) int {
	for i := range m.Components {
		if m.Components[i].Name == name {
			return i
		}
	}
	return -1
}

// HasPermission reports whether the app requests perm.
func (m *Manifest) HasPermission(perm string) bool {
	for _, p := range m.Permissions {
		if p == perm {
			return true
		}
	}
	return false
}

// HasExportedComponent reports whether any component is exported — the
// property inspected in the paper's Figure 2 study.
func (m *Manifest) HasExportedComponent() bool {
	for _, c := range m.Components {
		if c.Exported {
			return true
		}
	}
	return false
}

// ExportedComponents returns the names of all exported components, sorted.
func (m *Manifest) ExportedComponents() []string {
	var out []string
	for _, c := range m.Components {
		if c.Exported {
			out = append(out, c.Name)
		}
	}
	sort.Strings(out)
	return out
}

// xmlManifest mirrors the on-disk AndroidManifest.xml structure closely
// enough for the corpus study's extract-and-inspect pipeline.
type xmlManifest struct {
	XMLName     xml.Name            `xml:"manifest"`
	Package     string              `xml:"package,attr"`
	Label       string              `xml:"label,attr,omitempty"`
	Category    string              `xml:"category,attr,omitempty"`
	Permissions []xmlUsesPermission `xml:"uses-permission"`
	Application xmlApplication      `xml:"application"`
}

type xmlUsesPermission struct {
	Name string `xml:"name,attr"`
}

type xmlApplication struct {
	Activities []xmlComponent `xml:"activity"`
	Services   []xmlComponent `xml:"service"`
	Receivers  []xmlComponent `xml:"receiver"`
	Providers  []xmlComponent `xml:"provider"`
}

type xmlComponent struct {
	Name     string      `xml:"name,attr"`
	Exported bool        `xml:"exported,attr"`
	Filters  []xmlFilter `xml:"intent-filter"`
}

type xmlFilter struct {
	Actions    []xmlNamed `xml:"action"`
	Categories []xmlNamed `xml:"category"`
}

type xmlNamed struct {
	Name string `xml:"name,attr"`
}

// MarshalXMLDoc serializes the manifest as an AndroidManifest.xml-shaped
// document.
func (m *Manifest) MarshalXMLDoc() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	doc := xmlManifest{
		Package:  m.Package,
		Label:    m.Label,
		Category: m.Category,
	}
	for _, p := range m.Permissions {
		doc.Permissions = append(doc.Permissions, xmlUsesPermission{Name: p})
	}
	for _, c := range m.Components {
		xc := xmlComponent{Name: c.Name, Exported: c.Exported}
		for _, f := range c.Filters {
			xf := xmlFilter{}
			for _, a := range f.Actions {
				xf.Actions = append(xf.Actions, xmlNamed{Name: a})
			}
			for _, cat := range f.Categories {
				xf.Categories = append(xf.Categories, xmlNamed{Name: cat})
			}
			xc.Filters = append(xc.Filters, xf)
		}
		switch c.Kind {
		case KindActivity:
			doc.Application.Activities = append(doc.Application.Activities, xc)
		case KindService:
			doc.Application.Services = append(doc.Application.Services, xc)
		case KindReceiver:
			doc.Application.Receivers = append(doc.Application.Receivers, xc)
		case KindProvider:
			doc.Application.Providers = append(doc.Application.Providers, xc)
		}
	}
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: marshal %s: %w", m.Package, err)
	}
	return append([]byte(xml.Header), out...), nil
}

// ParseXMLDoc parses a document produced by MarshalXMLDoc (or hand-written
// in the same shape) back into a Manifest.
func ParseXMLDoc(data []byte) (*Manifest, error) {
	var doc xmlManifest
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("manifest: parse: %w", err)
	}
	m := &Manifest{
		Package:  doc.Package,
		Label:    doc.Label,
		Category: doc.Category,
	}
	for _, p := range doc.Permissions {
		m.Permissions = append(m.Permissions, p.Name)
	}
	add := func(kind ComponentKind, comps []xmlComponent) {
		for _, xc := range comps {
			c := Component{Kind: kind, Name: xc.Name, Exported: xc.Exported}
			for _, xf := range xc.Filters {
				f := IntentFilter{}
				for _, a := range xf.Actions {
					f.Actions = append(f.Actions, a.Name)
				}
				for _, cat := range xf.Categories {
					f.Categories = append(f.Categories, cat.Name)
				}
				c.Filters = append(c.Filters, f)
			}
			m.Components = append(m.Components, c)
		}
	}
	add(KindActivity, doc.Application.Activities)
	add(KindService, doc.Application.Services)
	add(KindReceiver, doc.Application.Receivers)
	add(KindProvider, doc.Application.Providers)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Builder provides a fluent way to assemble manifests in scenario code.
type Builder struct {
	m Manifest
}

// NewBuilder starts a manifest for the given package.
func NewBuilder(pkg, label string) *Builder {
	return &Builder{m: Manifest{Package: pkg, Label: label}}
}

// Category sets the Play-store category.
func (b *Builder) Category(c string) *Builder {
	b.m.Category = c
	return b
}

// Permission adds a uses-permission entry.
func (b *Builder) Permission(perms ...string) *Builder {
	b.m.Permissions = append(b.m.Permissions, perms...)
	return b
}

// Activity declares an activity component.
func (b *Builder) Activity(name string, exported bool, filters ...IntentFilter) *Builder {
	b.m.Components = append(b.m.Components, Component{
		Kind: KindActivity, Name: name, Exported: exported, Filters: filters,
	})
	return b
}

// Service declares a service component.
func (b *Builder) Service(name string, exported bool, filters ...IntentFilter) *Builder {
	b.m.Components = append(b.m.Components, Component{
		Kind: KindService, Name: name, Exported: exported, Filters: filters,
	})
	return b
}

// Receiver declares a broadcast receiver component.
func (b *Builder) Receiver(name string, exported bool, filters ...IntentFilter) *Builder {
	b.m.Components = append(b.m.Components, Component{
		Kind: KindReceiver, Name: name, Exported: exported, Filters: filters,
	})
	return b
}

// Provider declares a content provider component.
func (b *Builder) Provider(name string, exported bool) *Builder {
	b.m.Components = append(b.m.Components, Component{
		Kind: KindProvider, Name: name, Exported: exported,
	})
	return b
}

// Build validates and returns the manifest.
func (b *Builder) Build() (*Manifest, error) {
	m := b.m
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// MustBuild is Build that panics on error, for static scenario tables.
func (b *Builder) MustBuild() *Manifest {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// FullComponentName renders "package/Name", the canonical component
// reference used in explicit intents.
func FullComponentName(pkg, name string) string {
	return pkg + "/" + name
}

// SplitComponentName splits "package/Name" into its parts.
func SplitComponentName(full string) (pkg, name string, err error) {
	i := strings.IndexByte(full, '/')
	if i <= 0 || i == len(full)-1 {
		return "", "", fmt.Errorf("manifest: malformed component name %q", full)
	}
	return full[:i], full[i+1:], nil
}
