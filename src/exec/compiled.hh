/**
 * @file
 * Empty on purpose.  perfbench/xbspbench.cc still includes this
 * header; the benchmark's next revision drops the include, and this
 * file goes with it.  The engine lives in exec/engine.hh.
 */
