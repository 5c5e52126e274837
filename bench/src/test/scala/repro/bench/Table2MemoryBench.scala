package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Regenerates paper Table 2 (memory saved vs Trino+Redis). */
class Table2MemoryBench extends AnyFunSuite {

  test("Table 2: memory savings reproduce the paper's shape") {
    val rows = Table2Memory.run()
    println(Table2Memory.render(rows))

    // Shape assertions against the paper's Table 2:
    // (1) OpenMLDB always uses less memory than Redis
    rows.foreach(r => assert(r.openmldbBytes < r.redisBytes))
    // (2) the reduction decreases as keys amortize with scale
    val reds = rows.map(_.reductionPct)
    assert(reds == reds.sorted.reverse, s"reductions should fall with scale: $reds")
    // (3) small-scale reduction lands near the paper's 74.77%
    assert(reds.head > 60 && reds.head < 85, s"10k reduction ${reds.head}")
    // (4) full-scale reduction lands near the paper's 45.66%
    assert(reds.last > 30 && reds.last < 60, s"185M reduction ${reds.last}")
  }

  test("Table 2: a live online table holds the §7.1 bytes the model counts") {
    val r = Table2Memory.live(20000)
    print(Table2Memory.renderLive(r))
    assert(r.tuples == 20000)
    assert(r.encodedBytes == r.modelRowBytes)
  }
}
