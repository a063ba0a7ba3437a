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
	if gen.LentBulk.Results["MemRead"] != "Data" {
		t.Error("gen.LentBulk does not list MemRead's result as lent")
	}
	for name := range gen.BorrowedArgCalls {
		if len(bufown.BorrowedArgs[name]) == 0 {
			t.Errorf("gen.BorrowedArgCalls has %s but the analyzer table does not", name)
		}
	}
}
