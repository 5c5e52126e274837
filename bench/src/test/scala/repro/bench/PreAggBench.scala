package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Figures 10/11 shape: pre-aggregation vs raw scans on long windows. */
class PreAggBench extends AnyFunSuite {

  test("pre-aggregation turns linear long-window latency into ~flat") {
    val rows = PreAggAblation.run(sizes = Seq(100000, 500000, 1000000))
    println(PreAggAblation.render(rows))

    // raw latency grows with window size; pre-agg stays bounded
    val raw = rows.map(_.rawMs)
    assert(raw.last > raw.head, s"raw should grow: $raw")
    rows.foreach(r => assert(r.preAggMs < 50.0, s"pre-agg ${r.preAggMs} ms at ${r.windowTuples}"))
    // the paper's 860k-tuple ablation saw 45x; require >10x at >=500k
    rows.filter(_.windowTuples >= 500000).foreach { r =>
      assert(r.speedup > 10.0, f"speedup ${r.speedup}%.1fx at ${r.windowTuples}")
    }
  }

  test("a key's buckets pay off above a few rows: the threshold sweep") {
    val rows = PreAggAblation.sweep()
    println(PreAggAblation.renderSweep(rows))
    // at 256 rows over 30 days the buckets beat folding every row
    assert(rows.last.bucketNs < rows.last.rawNs, rows.last.toString)
  }
}
