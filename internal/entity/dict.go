package entity

// Dict interns key names to dense integer ids, the bit positions of a
// KeySet. Ids are assigned in first-use order.
//
// A Dict is single-writer: ID mutates and must only be called from one
// goroutine at a time.
type Dict struct {
	ids   map[string]int
	names []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: map[string]int{}} }

// ID returns the id for name, assigning the next id on first use.
// Mutates: single-writer only.
func (d *Dict) ID(name string) int {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := len(d.names)
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}

// Name returns the name for id.
func (d *Dict) Name(id int) string { return d.names[id] }

// Len returns the number of interned names.
func (d *Dict) Len() int { return len(d.names) }
