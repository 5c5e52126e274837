package repro.core.online

import org.scalatest.concurrent.{ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._
import repro.LocalGen
import repro.core.online.WindowUnionStream._

class SelfAdjustingUnionSpec extends AnyFunSuite with TimeLimits {

  private def closeEnough(a: Array[Double], b: Array[Double]): Unit = {
    assert(a.length == b.length)
    a.indices.foreach { i =>
      assert(math.abs(a(i) - b(i)) < 1e-6, s"idx $i: ${a(i)} vs ${b(i)}")
    }
  }

  test("reference: window sum includes only the key's tuples in range") {
    val ts = IndexedSeq(
      StreamTuple(0, "a", 0, 1.0), StreamTuple(1, "a", 5, 2.0),
      StreamTuple(0, "b", 6, 10.0), StreamTuple(2, "a", 20, 4.0))
    val r = sequentialReference(ts, windowMs = 10)
    assert(r.toSeq == Seq(1.0, 3.0, 10.0, 4.0)) // last window [10,20] excludes ts 0 and 5
  }

  test("static union matches the sequential reference") {
    val tuples = LocalGen.unionStream(20000, nKeys = 50, seed = 21)
    val got = new StaticUnion(4, windowMs = 500).run(tuples)
    closeEnough(got, sequentialReference(tuples, 500))
  }

  test("self-adjusting union matches the reference without rebalances") {
    val tuples = LocalGen.unionStream(20000, nKeys = 50, seed = 22)
    val eng = new SelfAdjustingUnion(4, windowMs = 500, rebalanceEvery = Int.MaxValue)
    closeEnough(eng.run(tuples), sequentialReference(tuples, 500))
  }

  test("self-adjusting union stays exact across rebalances") {
    val tuples = LocalGen.unionStream(50000, nKeys = 20, alpha = 1.5, seed = 23)
    val eng = new SelfAdjustingUnion(4, windowMs = 2000, rebalanceEvery = 5000)
    val got = eng.run(tuples)
    closeEnough(got, sequentialReference(tuples, 2000))
  }

  test("rebalancer actually fires under a skewed key distribution") {
    val tuples = LocalGen.unionStream(60000, nKeys = 16, alpha = 2.0, seed = 24)
    val eng = new SelfAdjustingUnion(4, windowMs = 1000, rebalanceEvery = 2000)
    eng.run(tuples)
    assert(eng.rebalances > 0, "expected at least one rebalance on zipf(2.0) keys")
  }

  test("frequent rebalances over many hot keys never stall the run") {
    // with 32 or more keys on the hot worker, ranking them sorts with
    // TimSort's merge path, which rejects a ranking read from counters the
    // feeding thread is still incrementing
    val tuples = LocalGen.unionStream(100000, nKeys = 2000, alpha = 1.7, seed = 28)
    val want = new StaticUnion(2, windowMs = 2000).run(tuples)
    (0 until 5).foreach { _ =>
      val eng = new SelfAdjustingUnion(2, windowMs = 2000, rebalanceEvery = 500)
      closeEnough(failAfter(60.seconds)(eng.run(tuples))(ThreadSignaler), want)
      assert(eng.rebalances > 0)
    }
  }

  test("multi-table provenance: union aggregates across all tables") {
    // same key from 3 different tables — all must land in one window
    val ts = IndexedSeq(
      StreamTuple(0, "k", 0, 1.0), StreamTuple(1, "k", 1, 2.0), StreamTuple(2, "k", 2, 4.0))
    val got = new SelfAdjustingUnion(2, windowMs = 10, rebalanceEvery = Int.MaxValue).run(ts)
    assert(got.toSeq == Seq(1.0, 3.0, 7.0))
  }

  test("window boundary: tuples exactly windowMs apart are included") {
    val ts = IndexedSeq(StreamTuple(0, "k", 0, 1.0), StreamTuple(0, "k", 10, 2.0))
    val got = new StaticUnion(1, windowMs = 10).run(ts)
    assert(got.toSeq == Seq(1.0, 3.0))
  }

  test("tuples older than the window are evicted from the running sum") {
    val ts = IndexedSeq(
      StreamTuple(0, "k", 0, 1.0), StreamTuple(0, "k", 100, 2.0), StreamTuple(0, "k", 150, 4.0))
    val got = new SelfAdjustingUnion(1, windowMs = 60, rebalanceEvery = Int.MaxValue).run(ts)
    assert(got.toSeq == Seq(1.0, 2.0, 6.0))
  }

  test("single worker degenerate case works") {
    val tuples = LocalGen.unionStream(5000, nKeys = 10, seed = 25)
    closeEnough(new SelfAdjustingUnion(1, 300, 1000).run(tuples),
      sequentialReference(tuples, 300))
  }

  test("many workers with few keys still terminate and agree") {
    val tuples = LocalGen.unionStream(5000, nKeys = 3, seed = 26)
    closeEnough(new StaticUnion(8, 300).run(tuples), sequentialReference(tuples, 300))
  }

  test("a key whose ts goes backwards is rejected before any tuple is handled") {
    val ts = IndexedSeq(
      StreamTuple(0, "a", 10, 1.0), StreamTuple(1, "b", 5, 2.0), StreamTuple(2, "a", 7, 4.0))
    Seq(new SelfAdjustingUnion(2, 100, rebalanceEvery = Int.MaxValue), new StaticUnion(2, 100))
      .foreach { eng =>
        val e = intercept[IllegalArgumentException](eng.run(ts))
        assert(e.getMessage.contains("key a") && e.getMessage.contains("ts 7") &&
          e.getMessage.contains("ts 10"), e.getMessage)
      }
  }

  test("retained entries stay bounded by the frame over a stream of many windows") {
    val windowMs = 100L
    val rnd = new scala.util.Random(27)
    // steps of 0-2 ms, ties included: about 50 windows
    val stamps = (0 until 5000).scanLeft(0L)((t, _) => t + rnd.nextInt(3)).tail
    val inc, scan = new KeyState
    stamps.zipWithIndex.foreach { case (t, i) =>
      val sum = inc.addAndQuery(t, 1.0, windowMs)
      val scanned = scan.rescan(t, 1.0, windowMs)
      val inFrame = stamps.view.take(i + 1).count(_ >= t - windowMs)
      assert(sum == inFrame && scanned == inFrame, s"sums at ts $t")
      assert(inc.size == inFrame && scan.size == inFrame, s"retained entries at ts $t")
    }
    assert(stamps.last > 10 * windowMs)
  }

  test("a worker that throws makes run throw instead of hanging") {
    val tuples = LocalGen.unionStream(20000, nKeys = 50, seed = 26)
    // the throw hits the middle of worker 0's third block, and it waits
    // until every tuple is routed, so full blocks sit queued behind it
    val onFirst = tuples.filter(t => math.floorMod(t.key.hashCode, 3) == 0)
    assert(onFirst.size > 4 * BlockSize)
    val bad = onFirst(2 * BlockSize + BlockSize / 2)
    val routed = new java.util.concurrent.CountDownLatch(tuples.size)
    val eng = new ThreadedEngine(3) {
      protected def router(keys: IndexedSeq[String]): Int => Int =
        k => { routed.countDown(); hashed(keys(k)) }
      protected def handle(ts: Long, v: Double, st: KeyState): Double =
        if (ts == bad.ts) { // ts is unique in the stream
          routed.await(10, java.util.concurrent.TimeUnit.SECONDS)
          throw new IllegalStateException("boom")
        } else st.addAndQuery(ts, v, 500)
    }
    val e = intercept[IllegalStateException](failAfter(30.seconds)(eng.run(tuples))(ThreadSignaler))
    assert(e.getMessage == "boom")
    assert(routed.getCount == 0)
  }

  test("streams around the block size agree with the reference on both engines") {
    val sizes = Seq(0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 2 * BlockSize + 1)
    for (n <- sizes; workers <- Seq(1, 2, 4)) {
      val tuples = LocalGen.unionStream(n, nKeys = 5, seed = 29)
      val want = sequentialReference(tuples, 300)
      Seq(new StaticUnion(workers, 300), new SelfAdjustingUnion(workers, 300, rebalanceEvery = 100))
        .foreach { eng =>
          withClue(s"$n tuples, $workers workers, ${eng.getClass.getSimpleName}: ") {
            closeEnough(failAfter(30.seconds)(eng.run(tuples))(ThreadSignaler), want)
          }
        }
    }
  }

  test("keys that move many times inside one block stay exact") {
    // rebalancing every 7 tuples moves keys while their predecessors sit
    // in the old worker's unflushed block; run also checks nothing is left
    // parked
    val tuples = LocalGen.unionStream(20 * BlockSize + 3, nKeys = 30, alpha = 1.5, seed = 30)
    val want = sequentialReference(tuples, 1000)
    Seq(2, 4).foreach { workers =>
      val eng = new SelfAdjustingUnion(workers, windowMs = 1000, rebalanceEvery = 7)
      closeEnough(failAfter(60.seconds)(eng.run(tuples))(ThreadSignaler), want)
      assert(eng.rebalances > 0)
    }
  }

  test("a dominant key moves at most once") {
    // two keys at 90:10; loads are cumulative, so a rebalancer that moved
    // the dominant key whenever its worker was hot would flip it between
    // the workers at every rebalance
    val tuples = (0 until 20000).map(i => StreamTuple(0, if (i % 10 == 0) "minor" else "major", i, 1.0))
    val eng = new SelfAdjustingUnion(2, windowMs = 100, rebalanceEvery = 50)
    closeEnough(failAfter(30.seconds)(eng.run(tuples))(ThreadSignaler), sequentialReference(tuples, 100))
    assert(eng.rebalances <= 1, s"${eng.rebalances} rebalances")
  }

  test("every tuple handed to another worker still runs in its key's order") {
    // each key's successive tuples go to successive workers, so every tuple
    // is a handoff and one key's tuples park on several workers at once
    val tuples = LocalGen.unionStream(50000, nKeys = 20, alpha = 1.5)
    val eng = new ThreadedEngine(4) {
      protected def router(keys: IndexedSeq[String]): Int => Int = {
        val turn = new Array[Int](keys.length)
        k => { val w = turn(k); turn(k) = (w + 1) % 4; w }
      }
      protected def handle(ts: Long, v: Double, st: KeyState): Double = st.addAndQuery(ts, v, 2000)
    }
    closeEnough(failAfter(60.seconds)(eng.run(tuples))(ThreadSignaler), sequentialReference(tuples, 2000))
  }

  test("one engine runs the same stream twice with the same answers") {
    val tuples = LocalGen.unionStream(20000, nKeys = 50, alpha = 1.5, seed = 27)
    val want = sequentialReference(tuples, 500)
    val selfAdj = new SelfAdjustingUnion(4, windowMs = 500, rebalanceEvery = 3000)
    val static = new StaticUnion(4, windowMs = 500)
    (1 to 2).foreach { _ =>
      closeEnough(failAfter(60.seconds)(selfAdj.run(tuples))(ThreadSignaler), want)
      closeEnough(failAfter(60.seconds)(static.run(tuples))(ThreadSignaler), want)
    }
  }

  /** The first tuple index of each pre-pass chunk after the first, as
    * `run` splits `n` tuples over `workers` workers and the caller.
    */
  private def chunkStarts(n: Int, workers: Int): Seq[Int] =
    (1 to workers).map(c => (n.toLong * c / (workers + 1)).toInt)

  test("the first ts-order violation in submission order is reported, wherever the chunks split") {
    // keys cycle over k0..k4 at ts 10 * i; a violation at j gives tuple j
    // a ts just below that of j - 5, its key's previous tuple
    val n = 100
    for (workers <- Seq(1, 2, 4)) {
      val starts = chunkStarts(n, workers)
      val cases = Seq(
        "at a chunk boundary" -> Seq(starts.head),
        "at the last chunk boundary" -> Seq(starts.last),
        "inside the last chunk" -> Seq(n - 3),
        "in the first and the last chunk" -> Seq(10, n - 3),
        "a boundary one before a local one" -> Seq(starts.head + 4, starts.head + 6),
        "a local one before a later boundary" -> Seq(starts.head + 6, starts.last))
      for ((name, bad) <- cases) {
        val tuples = (0 until n).map { i =>
          StreamTuple(0, s"k${i % 5}", if (bad.contains(i)) 10L * (i - 5) - 1 else 10L * i, 1.0)
        }
        val first = bad.min
        val want = s"requirement failed: key k${first % 5}: ts ${10L * (first - 5) - 1} comes after " +
          s"ts ${10L * (first - 5)}; run needs each key's tuples in ts order"
        Seq(new SelfAdjustingUnion(workers, 100, rebalanceEvery = 7), new StaticUnion(workers, 100)).foreach { eng =>
          withClue(s"$name, $workers workers, ${eng.getClass.getSimpleName}: ") {
            val e = intercept[IllegalArgumentException](failAfter(30.seconds)(eng.run(tuples))(ThreadSignaler))
            assert(e.getMessage == want)
          }
        }
      }
    }
  }

  test("streams shorter than the chunk count agree with the reference") {
    for (n <- 0 to 5; workers <- Seq(1, 2, 4); keys <- Seq(1, 2)) {
      val tuples = (0 until n).map(i => StreamTuple(i % 3, s"k${i % keys}", i.toLong, i + 1.0))
      val want = sequentialReference(tuples, 3)
      Seq(new SelfAdjustingUnion(workers, 3, rebalanceEvery = 1), new StaticUnion(workers, 3)).foreach { eng =>
        withClue(s"$n tuples, $keys keys, $workers workers, ${eng.getClass.getSimpleName}: ") {
          closeEnough(failAfter(30.seconds)(eng.run(tuples))(ThreadSignaler), want)
        }
      }
    }
  }

  test("key ids follow first appearance over the whole stream") {
    // 400 keys over 3000 tuples: many keys first appear in later chunks
    val tuples = LocalGen.unionStream(3000, nKeys = 400, alpha = 0.8, seed = 31)
    val want = tuples.map(_.key).distinct
    assert(tuples.indexWhere(_.key == want.last) >= tuples.size / 2)
    for (workers <- Seq(1, 2, 4)) {
      var seen: IndexedSeq[String] = null
      val eng = new ThreadedEngine(workers) {
        protected def router(keys: IndexedSeq[String]): Int => Int = { seen = keys; k => hashed(keys(k)) }
        protected def handle(ts: Long, v: Double, st: KeyState): Double = st.addAndQuery(ts, v, 500)
      }
      closeEnough(failAfter(30.seconds)(eng.run(tuples))(ThreadSignaler), sequentialReference(tuples, 500))
      assert(seen == want, s"$workers workers")
    }
  }

  test("engines reject a worker count or rebalance interval below one") {
    Seq(0, -1).foreach { bad =>
      val w = intercept[IllegalArgumentException](new StaticUnion(bad, 100))
      assert(w.getMessage.contains(s"nWorkers must be at least 1, got $bad"), w.getMessage)
      val s = intercept[IllegalArgumentException](new SelfAdjustingUnion(bad, 100))
      assert(s.getMessage.contains(s"nWorkers must be at least 1, got $bad"), s.getMessage)
      val r = intercept[IllegalArgumentException](new SelfAdjustingUnion(2, 100, rebalanceEvery = bad))
      assert(r.getMessage.contains(s"rebalanceEvery must be at least 1, got $bad"), r.getMessage)
    }
  }
}
