module scc

go 1.23
