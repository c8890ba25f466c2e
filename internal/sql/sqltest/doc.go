// Package sqltest is test support for package sql: a lexer and parser
// for the SQL subset sql.Select renders, and the eager evaluator the
// streaming executor is held to. CQAds generates SQL (Sec. 4.5) and
// never reads it, so production code does not import this package;
// only _test.go files do, and TestOnlyTestsImportSQLTest checks that.
package sqltest
