package bufown_test

import (
	"testing"

	"dgsf/internal/lint/linttest"
	"dgsf/internal/lint/passes/bufown"
	"dgsf/internal/remoting/gen"
)

func TestBufown(t *testing.T) {
	linttest.Run(t, "testdata", bufown.Analyzer, "e/bufownt")
}

// TestDefaultTablesAreGenerated pins the analyzer to apigen's generated
// buffer-ownership contract table, not a hand-maintained copy.
func TestDefaultTablesAreGenerated(t *testing.T) {
	if len(bufown.Acquires) == 0 || len(bufown.Releases) == 0 {
		t.Fatal("default pool tables are empty")
	}
	for get, put := range bufown.Acquires {
		if gen.PoolAcquire[get] != put {
			t.Errorf("analyzer pairs %s->%s but gen.PoolAcquire does not", get, put)
		}
	}
	for name := range bufown.BorrowedResults {
		if !gen.BorrowedResultCalls[name] {
			t.Errorf("analyzer borrows results of %s but gen.BorrowedResultCalls does not", name)
		}
	}
	if bufown.Lent.Type != gen.LentBulk.Type || bufown.Lent.Field != gen.LentBulk.Field || bufown.Lent.Release != gen.LentBulk.Release {
		t.Errorf("analyzer's lent-bulk contract %+v diverges from gen.LentBulk", bufown.Lent)
	}
	if bufown.Pooled != gen.PooledPayload {
		t.Errorf("analyzer's pooled-payload contract %+v diverges from gen.PooledPayload", bufown.Pooled)
	}
	if gen.PoolAcquire["GetBuf"] != "PutBuf" || gen.PoolRelease["PutBuf"] != "GetBuf" {
		t.Error("gen's pool tables do not pair GetBuf with PutBuf")
	}
	for name, pos := range gen.GivenArgCalls {
		if len(bufown.GivenArgs[name]) != len(pos) {
			t.Errorf("gen.GivenArgCalls has %s but the analyzer table does not", name)
		}
	}
	if len(gen.GivenArgCalls["Submit"]) != 1 || gen.GivenArgCalls["Submit"][0] != 1 {
		t.Error("gen.GivenArgCalls does not give Submit's request away")
	}
	if gen.LentBulk.Results["MemRead"] != "Data" {
		t.Error("gen.LentBulk does not list MemRead's result as lent")
	}
	for name := range gen.BorrowedArgCalls {
		if len(bufown.BorrowedArgs[name]) == 0 {
			t.Errorf("gen.BorrowedArgCalls has %s but the analyzer table does not", name)
		}
	}
}
