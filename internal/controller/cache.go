package controller

import (
	"fmt"
	"slices"

	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// Cache is a controller's local copy of the kinds it declared: filled by one
// List per kind at start-up, then kept current by the controller's watch
// pumps, which apply Added/Modified/Deleted in stream order. It is the only
// thing reconcilers read.
//
// Everything Get hands out is a shared read-only view — the same object the
// next reader gets — so DeepCopy before changing a field. Writes go through
// the store handle as compare-and-swap on the view's ResourceVersion
// (UpdateStatus, Delete): a view the watch has not caught up yet fails with
// store.ErrConflict, the reconcile returns it, and the key is retried after
// backoff against the by then newer view. A successful write's stored result
// is folded back in, so a reconciler sees its own writes at once.
type Cache struct {
	st       store.Interface
	kinds    map[store.Kind]*kindCache
	onChange func(old, cur store.Resource)
}

// kindCache holds one kind: objects by name plus the names in sorted order,
// maintained on insert and remove so that iteration is deterministic without
// sorting per pass.
type kindCache struct {
	objs  map[string]store.Resource
	names []string
}

func newCache(st store.Interface, kinds []store.Kind, onChange func(old, cur store.Resource)) *Cache {
	c := &Cache{st: st, kinds: make(map[store.Kind]*kindCache, len(kinds)), onChange: onChange}
	for _, k := range kinds {
		c.kinds[k] = &kindCache{objs: make(map[string]store.Resource)}
	}
	return c
}

// kind returns the kind's contents. Reading a kind the controller did not
// declare is a wiring bug, not a runtime condition.
func (c *Cache) kind(kind store.Kind) *kindCache {
	kc := c.kinds[kind]
	if kc == nil {
		panic(fmt.Sprintf("controller: kind %q is not cached (declare it in Options.Kinds or Options.Observe)", kind))
	}
	return kc
}

// Get returns the shared view of the named object, or nil when the cache
// holds none.
func (c *Cache) Get(kind store.Kind, name string) store.Resource {
	return c.kind(kind).objs[name]
}

// Names returns the kind's object names in sorted order. The slice is the
// cache's own: do not modify it, and do not hold it across a write or a
// blocking call.
func (c *Cache) Names(kind store.Kind) []string { return c.kind(kind).names }

// UpdateStatus writes r's status through the store handle and folds the
// stored result into the cache. The returned object is a shared view.
func (c *Cache) UpdateStatus(p *sim.Proc, r store.Resource) (store.Resource, error) {
	stored, err := c.st.UpdateStatus(p, r)
	if err != nil {
		return nil, err
	}
	c.put(stored)
	return stored, nil
}

// Delete removes the named object through the store handle (rv as in
// store.Interface) and, once the store confirms, from the cache — unless the
// watch replaced the cached view while the call was in flight, in which case
// the stream's own Deleted event settles it.
func (c *Cache) Delete(p *sim.Proc, kind store.Kind, name string, rv uint64) error {
	kc := c.kind(kind)
	was := kc.objs[name]
	if err := c.st.Delete(p, kind, name, rv); err != nil {
		return err
	}
	if was != nil && kc.objs[name] == was {
		c.remove(kc, name)
	}
	return nil
}

// apply folds one watch event in. Events older than the cached view (the
// echo of a write already folded back) change nothing.
func (c *Cache) apply(ev store.Event) {
	if ev.Type != store.Deleted {
		c.put(ev.Object)
		return
	}
	kc := c.kind(ev.Object.Kind())
	name := ev.Object.Meta().Name
	if old := kc.objs[name]; old != nil && old.Meta().ResourceVersion < ev.RV {
		c.remove(kc, name)
	}
}

// put stores r unless the cache already holds that version or a newer one.
func (c *Cache) put(r store.Resource) {
	kc := c.kind(r.Kind())
	name := r.Meta().Name
	old := kc.objs[name]
	if old == nil {
		i, _ := slices.BinarySearch(kc.names, name)
		kc.names = slices.Insert(kc.names, i, name)
	} else if old.Meta().ResourceVersion >= r.Meta().ResourceVersion {
		return
	}
	kc.objs[name] = r
	if c.onChange != nil {
		c.onChange(old, r)
	}
}

func (c *Cache) remove(kc *kindCache, name string) {
	old := kc.objs[name]
	delete(kc.objs, name)
	i, _ := slices.BinarySearch(kc.names, name)
	kc.names = slices.Delete(kc.names, i, i+1)
	if c.onChange != nil {
		c.onChange(old, nil)
	}
}

// replace makes the kind's contents those of a List taken at store version
// rv: listed objects are put, and whatever the list no longer has is dropped
// — except views newer than rv, which a write folded in after the snapshot.
func (c *Cache) replace(kind store.Kind, rs []store.Resource, rv uint64) {
	kc := c.kind(kind)
	listed := make(map[string]bool, len(rs))
	for _, r := range rs {
		listed[r.Meta().Name] = true
		c.put(r)
	}
	var gone []string
	for _, name := range kc.names {
		if !listed[name] && kc.objs[name].Meta().ResourceVersion <= rv {
			gone = append(gone, name)
		}
	}
	for _, name := range gone {
		c.remove(kc, name)
	}
}
