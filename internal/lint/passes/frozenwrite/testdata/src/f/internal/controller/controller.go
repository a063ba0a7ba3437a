// Package controller mirrors the controller cache the analyzer keys on.
package controller

import (
	"f/internal/sim"
	"f/internal/store"
)

// Cache hands out shared read-only views.
type Cache struct {
	objs map[string]store.Resource
}

// Get returns the shared view of the named object.
func (c *Cache) Get(kind store.Kind, name string) store.Resource { return c.objs[name] }

// UpdateStatus writes r's status; the returned object is a shared view.
func (c *Cache) UpdateStatus(p *sim.Proc, r store.Resource) (store.Resource, error) {
	return c.objs[r.Meta().Name], nil
}
