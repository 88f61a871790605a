// Package acl implements policy objects and access control lists as the
// paper defines them (Section 4.3): "the ACL is a simple disjunction of
// expressions associated with Object O; ACL_O: {E0, E1, …, En} where each
// expression Ei = (G, access permissions) for a group G". Setting and
// updating policy objects is itself an operation mediated by threshold
// attribute certificates; the Store holds each object's current ACL and
// content.
package acl

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"jointadmin/internal/clock"
)

// Permission names an access right on an object. The paper's example uses
// write ("creation and modification") and read.
type Permission string

// The permissions of the running example, plus policy administration
// ("setting and updating of policy objects").
const (
	Read   Permission = "read"
	Write  Permission = "write"
	Modify Permission = "modify-policy"
)

// Sentinel errors.
var (
	// ErrNoObject indicates an unknown object name.
	ErrNoObject = errors.New("acl: no such object")
	// ErrBadEntry indicates a malformed ACL entry.
	ErrBadEntry = errors.New("acl: malformed entry")
)

// Entry is one expression Ei = (G, access permissions).
type Entry struct {
	Group string
	Perms []Permission
}

// Valid reports whether the entry is well-formed.
func (e Entry) Valid() bool {
	if e.Group == "" || len(e.Perms) == 0 {
		return false
	}
	for _, p := range e.Perms {
		if p == "" {
			return false
		}
	}
	return true
}

// Grants reports whether the entry grants the permission.
func (e Entry) Grants(p Permission) bool {
	for _, q := range e.Perms {
		if q == p {
			return true
		}
	}
	return false
}

// String renders "(G, perms...)".
func (e Entry) String() string {
	ps := make([]string, len(e.Perms))
	for i, p := range e.Perms {
		ps[i] = string(p)
	}
	sort.Strings(ps)
	return fmt.Sprintf("(%s, %s)", e.Group, strings.Join(ps, "|"))
}

// ACL is the disjunction of entries attached to one object.
type ACL struct {
	entries []Entry
}

// NewACL builds an ACL from entries, rejecting malformed ones.
func NewACL(entries ...Entry) (*ACL, error) {
	a := &ACL{entries: make([]Entry, 0, len(entries))}
	for _, e := range entries {
		if !e.Valid() {
			return nil, fmt.Errorf("%w: %v", ErrBadEntry, e)
		}
		a.entries = append(a.entries, cloneEntry(e))
	}
	return a, nil
}

func cloneEntry(e Entry) Entry {
	ps := make([]Permission, len(e.Perms))
	copy(ps, e.Perms)
	return Entry{Group: e.Group, Perms: ps}
}

// Allows implements Step 4 of the authorization protocol: access is
// approved iff some expression (G, perm) ∈ ACL_O matches.
func (a *ACL) Allows(group string, p Permission) bool {
	for _, e := range a.entries {
		if e.Group == group && e.Grants(p) {
			return true
		}
	}
	return false
}

// Entries returns a deep copy of the expressions.
func (a *ACL) Entries() []Entry {
	out := make([]Entry, len(a.entries))
	for i, e := range a.entries {
		out[i] = cloneEntry(e)
	}
	return out
}

// String renders "{E0, E1, ...}".
func (a *ACL) String() string {
	parts := make([]string, len(a.entries))
	for i, e := range a.entries {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// object is a coalition resource: its policy object (ACL) and content.
type object struct {
	acl     *ACL
	content []byte
}

// Store holds the coalition server's objects. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[string]*object
}

// NewStore returns an empty object store. The store keeps only each
// object's current state, so it reads no clock; the parameter stays for
// the callers that pass theirs.
func NewStore(*clock.Clock) *Store {
	return &Store{objects: make(map[string]*object)}
}

// Create installs a new object with its initial ACL and content. The
// last argument names the creating authority; the store does not keep it.
func (s *Store) Create(name string, a *ACL, content []byte, _ string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; ok {
		return fmt.Errorf("acl: object %q already exists", name)
	}
	s.objects[name] = &object{acl: a, content: cloneBytes(content)}
	return nil
}

// ACLOf returns the current ACL of the named object.
func (s *Store) ACLOf(name string) (*ACL, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrNoObject)
	}
	return o.acl, nil
}

// Read returns the object content (Step 4 already approved by the caller).
func (s *Store) Read(name string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrNoObject)
	}
	return cloneBytes(o.content), nil
}

// Write replaces the object content. The last argument names the
// authorizing group; the store does not keep it.
func (s *Store) Write(name string, content []byte, _ string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[name]
	if !ok {
		return fmt.Errorf("%q: %w", name, ErrNoObject)
	}
	o.content = cloneBytes(content)
	return nil
}

// SetACL replaces the object's policy object (ACL). This is the "setting
// and updating of policy objects" operation that joint administration
// mediates; the last argument names the authorizing group, which the
// store does not keep.
func (s *Store) SetACL(name string, a *ACL, _ string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[name]
	if !ok {
		return fmt.Errorf("%q: %w", name, ErrNoObject)
	}
	o.acl = a
	return nil
}

// Names returns all object names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.objects))
	for n := range s.objects {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
