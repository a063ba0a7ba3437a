package main

// The store surface. The cluster control plane's resource store
// (internal/store) is remotable over the same wire layer as the CUDA API,
// and its stubs come out of the same emitters, into package store itself:
// the in-process Store is Dispatch's backend and the Client is the remote
// handle. The store protocol has its own call-ID space because it is served
// from its own listener, never multiplexed with the CUDA surface.

var storeSurface = surface{
	Header: `// The store's wire protocol: call IDs, request/response message types, the
// Client a remote handle is built on, and the DispatchTo function that serves
// a Store. Regenerate with:
//
//	go run ./cmd/apigen

package store

import (
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)
`,
	APIDoc: `// API is the remoted store surface, implemented by the in-process Store
// (which DispatchTo calls directly) and by Client.`,
	ClientDoc: `// Client implements API by remoting every call over a transport.
// One-way calls use the async submission lane when the transport
// supports it and degrade to synchronous round trips otherwise.`,
	BadReq: "ErrBadRequest",
	Intern: true,
}

// storeSpec is the remoted store surface, named as the Store's own methods:
// CRUD plus the long-poll watch pull, with one one-way call
// (UpdateStatusAsync) on the pipelined async lane — status publishes are
// fire-and-forget, and level-triggered resync heals any dropped conflict.
var storeSpec = []Call{
	{Name: "Get", Doc: "fetches one resource by kind and name", Req: []Field{{"Kind", "kind"}, {"Name", "str"}}, Resp: []Field{{"Obj", "obj"}}},
	{Name: "List", Doc: "lists a kind's resources in name order, with the store's current resource version", Req: []Field{{"Kind", "kind"}}, Resp: []Field{{"Objs", "objs"}, {"RV", "u64"}}},
	{Name: "Create", Doc: "inserts a new resource, returning the stored form (fresh UID, RV, generation)", Req: []Field{{"Obj", "obj"}}, Resp: []Field{{"Stored", "obj"}}},
	{Name: "Update", Doc: "replaces a resource's spec and status under optimistic concurrency", Req: []Field{{"Obj", "obj"}}, Resp: []Field{{"Stored", "obj"}}},
	{Name: "UpdateStatus", Doc: "replaces only a resource's status under optimistic concurrency", Req: []Field{{"Obj", "obj"}}, Resp: []Field{{"Stored", "obj"}}},
	{Name: "UpdateStatusAsync", Doc: "is the fire-and-forget status write on the one-way lane; conflicts are dropped, resync heals", Req: []Field{{"Obj", "obj"}}, Async: true},
	{Name: "Delete", Doc: "removes a resource; rv 0 deletes unconditionally, any other value must match", Req: []Field{{"Kind", "kind"}, {"Name", "str"}, {"RV", "u64"}}},
	{Name: "PullEvents", Doc: "is the long-poll watch: returns up to max events after fromRV, waiting up to wait for the first", Req: []Field{{"Kind", "kind"}, {"FromRV", "u64"}, {"Max", "int"}, {"Wait", "dur"}}, Resp: []Field{{"Events", "events"}, {"NextRV", "u64"}}},
}

func buildStoreSpec() []Call {
	calls := make([]Call, len(storeSpec))
	copy(calls, storeSpec)
	for i := range calls {
		calls[i].ID = i + 1
	}
	return calls
}
