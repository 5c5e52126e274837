package repro.core.functions

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.core.functions.AggCore._

class AggCoreSpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }
  private def D(v: Double): java.lang.Double = java.lang.Double.valueOf(v)

  // ------------------------------------------------------------- basics

  test("count ignores nulls") {
    val s = new CountState
    Seq[Any]("a", null, 1, null).foreach(s.update)
    assert(s.result == 2L)
  }

  test("count merge adds") {
    val a = new CountState; val b = new CountState
    a.update(1); b.update(2); b.update(3)
    a.merge(b)
    assert(a.result == 3L)
  }

  test("sum of empty input is null") { assert(new SumState().result == null) }

  test("sum skips nulls") {
    val s = new SumState
    Seq(D(1.5), null, D(2.5)).foreach(s.update)
    assert(s.result == 4.0)
  }

  test("avg divides by non-null count") {
    val s = new AvgState
    Seq(D(2), null, D(4)).foreach(s.update)
    assert(s.result == 3.0)
  }

  test("avg of empty input is null") { assert(new AvgState().result == null) }

  test("min/max track extremes and skip nulls") {
    val mn = new MinState; val mx = new MaxState
    Seq(D(5), null, D(-2), D(7)).foreach { v => mn.update(v); mx.update(v) }
    assert(mn.result == -2.0 && mx.result == 7.0)
  }

  test("min/max of empty input are null") {
    assert(new MinState().result == null && new MaxState().result == null)
  }

  test("distinct_count deduplicates") {
    val s = new DistinctCountState
    Seq("a", "b", "a", null, "c", "b").foreach(s.update)
    assert(s.result == 3L)
  }

  test("distinct_count merge unions the sets") {
    val a = new DistinctCountState; val b = new DistinctCountState
    a.update("x"); b.update("x"); b.update("y")
    a.merge(b)
    assert(a.result == 2L)
  }

  // --------------------------------------------------------- topn_frequency

  test("topn_frequency orders by frequency descending") {
    val s = new TopNFreqState(2)
    Seq("b", "a", "b", "c", "b", "a").foreach(s.update)
    assert(s.result == "b,a")
  }

  test("topn_frequency breaks frequency ties by key ascending") {
    val s = new TopNFreqState(3)
    Seq("z", "y", "x").foreach(s.update)
    assert(s.result == "x,y,z")
    // a tie at the n-th place: {a:2, b:1, c:1, d:1} with n = 2
    val atN = new TopNFreqState(2)
    Seq("d", "c", "b", "a", "a").foreach(atN.update)
    assert(atN.result == "a,b")
  }

  test("topn_frequency with n larger than distinct keys returns all") {
    val s = new TopNFreqState(10)
    Seq("a", "b").foreach(s.update)
    assert(s.result == "a,b")
  }

  test("topn_frequency of empty input is the empty string") {
    assert(new TopNFreqState(3).result == "")
  }

  test("topn_frequency merge combines counts") {
    val a = new TopNFreqState(1); val b = new TopNFreqState(1)
    Seq("x", "y").foreach(a.update); Seq("y", "y").foreach(b.update)
    a.merge(b)
    assert(a.result == "y")
  }

  // --------------------------------------------------------- avg_cate_where

  test("avg_cate_where groups passing values by category") {
    val s = new AvgCateWhereState
    s.update((D(10), true, "shoes"))
    s.update((D(30), true, "shoes"))
    s.update((D(99), false, "shoes")) // filtered out
    s.update((D(5), true, "books"))
    assert(s.result == "books:5.0,shoes:20.0")
  }

  test("avg_cate_where of no passing rows is empty") {
    val s = new AvgCateWhereState
    s.update((D(1), false, "x"))
    assert(s.result == "")
  }

  test("avg_cate_where ignores null values, conditions and categories") {
    val s = new AvgCateWhereState
    s.update((null, true, "x")); s.update((D(1), null, "x")); s.update((D(1), true, null))
    assert(s.result == "")
  }

  test("avg_cate_where output is sorted by category") {
    val s = new AvgCateWhereState
    Seq("z", "a", "m").foreach(c => s.update((D(1), true, c)))
    assert(s.result == "a:1.0,m:1.0,z:1.0")
  }

  // --------------------------------------------------------------- drawdown

  test("drawdown of a monotonically rising series is 0") {
    val s = new DrawdownState
    Seq(1.0, 2.0, 3.0).foreach(v => s.update(D(v)))
    assert(s.result == 0.0)
  }

  test("drawdown measures the max peak-to-trough decline fraction") {
    val s = new DrawdownState
    // peak 100 -> trough 60 = 40%; later peak 120 -> 90 = 25%
    Seq(50.0, 100.0, 60.0, 120.0, 90.0).foreach(v => s.update(D(v)))
    assert(math.abs(s.result - 0.4) < 1e-12)
  }

  test("drawdown is order-sensitive") {
    val up = new DrawdownState; val down = new DrawdownState
    Seq(1.0, 2.0).foreach(v => up.update(D(v)))
    Seq(2.0, 1.0).foreach(v => down.update(D(v)))
    assert(up.result == 0.0 && down.result == 0.5)
  }

  test("drawdown of empty input is null") { assert(new DrawdownState().result == null) }

  test("property: drawdown of positive series lies in [0, 1)") {
    check(Prop.forAll(Gen.nonEmptyListOf(Gen.chooseNum(0.1, 1e6))) { xs =>
      val s = new DrawdownState
      xs.foreach(v => s.update(D(v)))
      s.result >= 0.0 && s.result < 1.0
    })
  }

  // ----------------------------------------------------------------- ew_avg

  test("ew_avg of a single value is that value") {
    val s = new EwAvgState(0.5)
    s.update(D(7.0))
    assert(s.result == 7.0)
  }

  test("ew_avg matches the closed-form weighted average") {
    val alpha = 0.3
    val xs = Seq(1.0, 2.0, 3.0, 4.0) // oldest..newest
    val s = new EwAvgState(alpha)
    xs.foreach(v => s.update(D(v)))
    val weights = xs.indices.map(i => math.pow(1 - alpha, xs.size - 1 - i))
    val expect = xs.zip(weights).map { case (x, w) => x * w }.sum / weights.sum
    assert(math.abs(s.result - expect) < 1e-12)
  }

  test("ew_avg with alpha=1 is the latest value") {
    val s = new EwAvgState(1.0)
    Seq(5.0, 9.0, 2.0).foreach(v => s.update(D(v)))
    assert(s.result == 2.0)
  }

  test("property: ew_avg lies between min and max of the inputs") {
    val gen = for {
      xs <- Gen.nonEmptyListOf(Gen.chooseNum(-1e6, 1e6))
      a  <- Gen.chooseNum(0.01, 1.0)
    } yield (xs, a)
    check(Prop.forAll(gen) { case (xs, a) =>
      val s = new EwAvgState(a)
      xs.foreach(v => s.update(D(v)))
      s.result >= xs.min - 1e-9 && s.result <= xs.max + 1e-9
    })
  }

  test("property: sum state equals Seq.sum") {
    check(Prop.forAll(Gen.listOf(Gen.chooseNum(-1e6, 1e6))) { xs =>
      val s = new SumState
      xs.foreach(v => s.update(D(v)))
      if (xs.isEmpty) s.result == null
      else math.abs(s.result - xs.sum) < 1e-6 * math.max(1.0, math.abs(xs.sum))
    })
  }
}
