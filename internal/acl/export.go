// Bulk export/import of object state, for the replication snapshot
// frames: object content and ACLs are not belief mutations and therefore
// never enter the WAL, so a follower receives them as a serialized store
// inside each shipped snapshot instead.
package acl

import "fmt"

// ObjectState is the serializable state of one object: its name, ACL
// entries and content.
type ObjectState struct {
	Name    string  `json:"name"`
	Entries []Entry `json:"entries"`
	Content []byte  `json:"content"`
}

// Export captures the current state of every object in the store, sorted
// by name.
func (s *Store) Export() ([]ObjectState, error) {
	out := make([]ObjectState, 0)
	for _, name := range s.Names() {
		a, err := s.ACLOf(name)
		if err != nil {
			return nil, fmt.Errorf("acl: export %s: %w", name, err)
		}
		content, err := s.Read(name)
		if err != nil {
			return nil, fmt.Errorf("acl: export %s: %w", name, err)
		}
		out = append(out, ObjectState{Name: name, Entries: a.Entries(), Content: content})
	}
	return out, nil
}

// Import installs exported object states into a fresh store; by is
// passed to Create as the creating authority (a replication applier
// passes its follower name). Importing over an existing object fails — appliers import into a new
// store and swap it in whole.
func (s *Store) Import(objs []ObjectState, by string) error {
	for _, o := range objs {
		a, err := NewACL(o.Entries...)
		if err != nil {
			return fmt.Errorf("acl: import %s: %w", o.Name, err)
		}
		if err := s.Create(o.Name, a, o.Content, by); err != nil {
			return fmt.Errorf("acl: import: %w", err)
		}
	}
	return nil
}
