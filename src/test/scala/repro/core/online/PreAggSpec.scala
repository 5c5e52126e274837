package repro.core.online

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import scala.util.Random

class PreAggSpec extends AnyFunSuite {

  /** Raw rows held next to the aggregator so queries can merge edges. */
  private def mkData(n: Int, seed: Long, span: Long): Seq[(Long, Double)] = {
    val rnd = new Random(seed)
    (0 until n).map(_ => (rnd.nextLong(span), rnd.nextDouble() * 100))
  }
  private def rawScan(data: Seq[(Long, Double)])(lo: Long, hi: Long): Iterator[(Long, Double)] =
    data.iterator.filter { case (ts, _) => ts >= lo && ts <= hi }

  private def reference(data: Seq[(Long, Double)], lo: Long, hi: Long): PartialAcc = {
    val acc = new PartialAcc
    rawScan(data)(lo, hi).foreach { case (_, v) => acc.add(v) }
    acc
  }

  private def assertSame(a: PartialAcc, b: PartialAcc): Unit = {
    assert(a.cnt == b.cnt)
    assert(math.abs(a.sum - b.sum) < 1e-6)
    if (a.cnt > 0) { assert(a.min == b.min); assert(a.max == b.max) }
  }

  test("levels must ascend and divide") {
    intercept[IllegalArgumentException](new PreAggTable(Seq(100L, 50L)))
    intercept[IllegalArgumentException](new PreAggTable(Seq(100L, 250L)))
    new PreAggTable(Seq(100L, 1000L, 10000L)) // fine
  }

  test("bucket-aligned query is answered purely from buckets") {
    val pa = new PreAggTable(Seq(10L, 100L))
    val data = (0L until 1000L).map(t => (t, 1.0))
    data.foreach { case (t, v) => pa.insert("k", t, v) }
    val p = pa.query("k", 0, 999, rawScan(data))
    assert(p.cnt == 1000 && p.sum == 1000.0)
    assert(pa.lastQueryRawRows == 0, "aligned query must not touch raw rows")
    assert(pa.lastQueryBuckets > 0)
  }

  test("ragged edges fall through to finer levels then raw rows") {
    val pa = new PreAggTable(Seq(10L, 100L))
    val data = (0L until 1000L).map(t => (t, 2.0))
    data.foreach { case (t, v) => pa.insert("k", t, v) }
    val p = pa.query("k", 5, 994, rawScan(data)) // unaligned at both ends
    assertSame(p, reference(data, 5, 994))
    assert(pa.lastQueryRawRows > 0, "sub-bucket edges need raw rows")
  }

  test("coarse buckets are preferred over fine ones for the interior") {
    val pa = new PreAggTable(Seq(10L, 100L))
    (0L until 1000L).foreach(t => pa.insert("k", t, 1.0))
    pa.query("k", 0, 999, (_, _) => Iterator.empty)
    // 10 coarse buckets beat 100 fine ones
    assert(pa.lastQueryBuckets == 10)
  }

  test("random ranges match the reference on random data") {
    val pa = new PreAggTable(Seq(100L, 1000L))
    val data = mkData(5000, seed = 1, span = 100000)
    data.foreach { case (t, v) => pa.insert("k", t, v) }
    val rnd = new Random(2)
    (1 to 50).foreach { _ =>
      val a = rnd.nextLong(100000); val b = rnd.nextLong(100000)
      val (lo, hi) = (math.min(a, b), math.max(a, b))
      assertSame(pa.query("k", lo, hi, rawScan(data)), reference(data, lo, hi))
    }
  }

  test("three-level hierarchy matches the reference") {
    val pa = new PreAggTable(Seq(10L, 100L, 1000L))
    val data = mkData(3000, seed = 3, span = 50000)
    data.foreach { case (t, v) => pa.insert("k", t, v) }
    val rnd = new Random(4)
    (1 to 30).foreach { _ =>
      val lo = rnd.nextLong(50000)
      val hi = math.min(49999, lo + rnd.nextLong(20000))
      assertSame(pa.query("k", lo, hi, rawScan(data)), reference(data, lo, hi))
    }
  }

  test("keys are isolated") {
    val pa = new PreAggTable(Seq(10L))
    pa.insert("a", 5, 1.0); pa.insert("b", 5, 100.0)
    val p = pa.query("a", 0, 9, (_, _) => Iterator.empty)
    assert(p.sum == 1.0)
  }

  test("unknown key falls back to the raw scan") {
    val pa = new PreAggTable(Seq(10L))
    val data = Seq((5L, 3.0))
    val p = pa.query("missing", 0, 9, rawScan(data))
    assert(p.cnt == 1 && p.sum == 3.0)
  }

  test("empty range yields the empty partial") {
    val pa = new PreAggTable(Seq(10L))
    pa.insert("k", 5, 1.0)
    assert(pa.query("k", 9, 2, (_, _) => Iterator.empty).cnt == 0)
  }

  test("negative timestamps bucket correctly (floorDiv alignment)") {
    val pa = new PreAggTable(Seq(10L))
    val data = Seq((-15L, 1.0), (-5L, 2.0), (5L, 4.0))
    data.foreach { case (t, v) => pa.insert("k", t, v) }
    assertSame(pa.query("k", -20, 9, rawScan(data)), reference(data, -20, 9))
  }

  test("bucketCount grows with inserted span, not row count") {
    val pa = new PreAggTable(Seq(100L))
    (0L until 1000L).foreach(t => pa.insert("k", t % 200, 1.0)) // 2 buckets only
    assert(pa.bucketCount == 2)
  }

  test("concurrent inserts across keys are safe") {
    val pa = new PreAggTable(Seq(10L, 100L))
    val threads = (0 until 4).map { t =>
      new Thread(() => (0 until 2500).foreach(i => pa.insert(s"k${i % 8}", i.toLong, 1.0)))
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    val total = (0 until 8).map(k => pa.query(s"k$k", 0, 2500, (_, _) => Iterator.empty).cnt).sum
    assert(total == 10000)
  }

  test("property: sorted levels agree with a reference fold under out-of-order inserts and nulls") {
    // (ts, value or null) inserted in generated order, so most buckets open
    // in the middle of a level; integral values keep every sum exact
    val row    = Gen.zip(Gen.chooseNum(-2000L, 20000L), Gen.option(Gen.chooseNum(-50, 50).map(_.toDouble)))
    val rows   = Gen.choose(0, 400).flatMap(n => Gen.listOfN(n, row))
    val bound  = Gen.chooseNum(-3000L, 21000L)
    val ranges = Gen.listOfN(20, Gen.zip(bound, bound))
    val levels = Seq(10L, 100L, 1000L)
    val p = Prop.forAll(rows, ranges) { (rows, qs) =>
      val pa = new PreAggTable(levels)
      rows.foreach { case (t, v) => v.fold(pa.insertNull("k", t))(pa.insert("k", t, _)) }
      def fold(lo: Long, hi: Long, acc: PartialAcc): Unit =
        rows.foreach { case (t, v) => if (t >= lo && t <= hi) v.fold(acc.addNull())(acc.add) }
      val buckets = levels.map(w => rows.map(r => math.floorDiv(r._1, w)).distinct.size.toLong).sum
      pa.bucketCount == buckets && qs.forall { case (a, b) =>
        val (lo, hi) = (math.min(a, b), math.max(a, b))
        val got  = pa.queryRows("k", lo, hi, fold)
        val want = { val acc = new PartialAcc; fold(lo, hi, acc); acc }
        got.rows == want.rows && got.cnt == want.cnt && got.sum == want.sum &&
          (want.cnt == 0 || (got.min == want.min && got.max == want.max))
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  test("an older row opening a bucket inside a full level array, at every size from 1 to 20, keeps queries exact") {
    // the finest level holds n buckets 20, 40, .., 20n (a full array at
    // sizes 1, 2, 3, 4, 6, 9, 13 and 19); one older row then opens bucket
    // 20 * at + 10, before each of them in turn (or after the last), and
    // every range must still fold like the reference
    val levels = Seq(10L, 20L)
    for (n <- 1 to 20; at <- 0 to n) {
      val pa = new PreAggTable(levels)
      val rows = scala.collection.mutable.ArrayBuffer.empty[(Long, Double)]
      def add(t: Long, v: Double): Unit = { pa.insert("k", t, v); rows += ((t, v)) }
      (1 to n).foreach(b => add(20L * b + 3, b.toDouble))
      add(20L * at + 15, -1.0 * at)
      if (at < n) add(20L * (n + 1) + 3, 100.0) // the level keeps growing after the shift
      val data = rows.toSeq
      assert(pa.bucketCount == levels.map(w => data.map(r => math.floorDiv(r._1, w)).distinct.size.toLong).sum)
      val edges = -5L to 20L * (n + 2) by 5L
      for (lo <- edges; hi <- edges if lo <= hi)
        assertSame(pa.query("k", lo, hi, rawScan(data)), reference(data, lo, hi))
      assert(pa.query("k", Long.MinValue / 2, Long.MaxValue / 2, rawScan(data)).cnt == data.size)
    }
  }

  test("a raw edge is scanned once when its finest bucket holds rows, and never when it holds none") {
    val pa = new PreAggTable(Seq(10L, 100L))
    val rows = scala.collection.mutable.ArrayBuffer.empty[(Long, Double)]
    def add(t: Long): Unit = { pa.insert("k", t, 1.0); rows += ((t, 1.0)) }
    (100L until 900L).foreach(add)
    val calls = scala.collection.mutable.ArrayBuffer.empty[(Long, Long)]
    def query(lo: Long, hi: Long): PartialAcc = {
      calls.clear()
      pa.queryRows("k", lo, hi, (l, h, acc) => { calls += ((l, h)); rawScan(rows.toSeq)(l, h).foreach(r => acc.add(r._2)) })
    }
    // covered [60, 950): the edges [55, 59] and [950, 954] lie in the empty buckets 50 and 950
    assert(query(55, 954).cnt == 800 && calls.isEmpty)
    add(52) // bucket 50 holds a row, outside the edge
    assert(query(55, 954).cnt == 800 && calls == Seq((55L, 59L)))
    add(957)
    assert(query(55, 954).cnt == 800 && calls.toSet == Set((55L, 59L), (950L, 954L)) && calls.size == 2)
    add(58); add(951)
    assert(query(55, 954).cnt == 802 && calls.size == 2)
    // only the finest level covers: [920, 950), edges in the empty bucket 910 and in 950
    assert(query(915, 958).cnt == 2 && calls == Seq((950L, 958L)))
  }

  test("property: queryRows equals a reference fold of the recorded rows, scanning only edges that hold rows") {
    // Random level ladders; rows with nulls and negative ts, inserted in
    // generated order; ranges random, empty (lo > hi), inside one finest
    // bucket, or ending on bucket boundaries. Integral values keep sums exact.
    val levelsGen = for {
      w0 <- Gen.oneOf(1L, 2L, 5L, 10L, 60L)
      ms <- Gen.choose(0, 2).flatMap(n => Gen.listOfN(n, Gen.oneOf(2L, 3L, 10L)))
    } yield ms.scanLeft(w0)(_ * _)
    val row  = Gen.zip(Gen.chooseNum(-3000L, 3000L), Gen.option(Gen.chooseNum(-50, 50).map(_.toDouble)))
    val rows = Gen.choose(0, 300).flatMap(n => Gen.listOfN(n, row))
    val p = Prop.forAll(levelsGen, rows, Gen.listOfN(30, Gen.zip(Gen.choose(0, 3), Gen.chooseNum(-3500L, 3500L),
        Gen.chooseNum(-3500L, 3500L)))) { (levels, rows, qs) =>
      val pa = new PreAggTable(levels)
      rows.foreach { case (t, v) => v.fold(pa.insertNull("k", t))(pa.insert("k", t, _)) }
      val w0 = levels.head
      def bucketHolds(t: Long): Boolean = rows.exists(r => math.floorDiv(r._1, w0) == math.floorDiv(t, w0))
      qs.forall { case (shape, a, b) =>
        val (lo, hi) = shape match {
          case 0 => (a, b)                                                            // random, maybe lo > hi
          case 1 => val s = math.floorDiv(a, w0) * w0; (s + (b % w0).abs / 2, s + w0 - 1) // inside one bucket
          case 2 => (math.floorDiv(a, w0) * w0, math.floorDiv(b, w0) * w0 - 1)        // both ends on boundaries
          case _ => (math.floorDiv(a, w0) * w0 - 1, math.floorDiv(b, w0) * w0)        // both ends one past
        }
        val calls = scala.collection.mutable.ArrayBuffer.empty[(Long, Long)]
        val got = pa.queryRows("k", lo, hi, (l, h, acc) => {
          calls += ((l, h))
          rows.foreach { case (t, v) => if (t >= l && t <= h) v.fold(acc.addNull())(acc.add) }
        })
        val want = new PartialAcc
        rows.foreach { case (t, v) => if (t >= lo && t <= hi) v.fold(want.addNull())(want.add) }
        // the finest cover [cs, ce); each edge is scanned once when its bucket holds rows
        val cs = math.floorDiv(lo + w0 - 1, w0) * w0
        val ce = math.floorDiv(hi + 1, w0) * w0
        val wantCalls =
          if (lo > hi) Nil
          else if (rows.isEmpty || cs >= ce) Seq((lo, hi))
          else Seq((lo, cs - 1)).filter(_ => lo < cs && bucketHolds(lo)) ++
            Seq((ce, hi)).filter(_ => ce <= hi && bucketHolds(ce))
        val edgesOk = calls == wantCalls
        got.rows == want.rows && got.cnt == want.cnt && got.sum == want.sum &&
          (want.cnt == 0 || (got.min == want.min && got.max == want.max)) && edgesOk
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), p)
    assert(res.passed, res.status.toString)
  }

  /** Every field of `a` equals `b`'s as a value: NaN equals NaN, -0.0
    * differs from +0.0. Which of -0.0 and +0.0 is the min or max of both
    * depends on fold order, so with `bothZeros` they compare with `==`.
    */
  private def sameBits(a: PartialAcc, b: PartialAcc, bothZeros: Boolean = false): Boolean = {
    def eq(x: Double, y: Double) = java.lang.Double.compare(x, y) == 0
    def ext(x: Double, y: Double) = if (bothZeros) x == y else eq(x, y)
    a.rows == b.rows && a.cnt == b.cnt && eq(a.sum, b.sum) && ext(a.min, b.min) && ext(a.max, b.max)
  }

  test("a one-row bucket that takes more rows, in every order of nulls and special values, folds like its rows") {
    // up to three rows in bucket 0 of both levels, one more in bucket 10 of
    // the finest; each range folds like the rows, bit for bit
    val values: Seq[Option[Double]] = None +: Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity,
      -0.0, 0.0, 1.5, -2.0).map(Some(_))
    val seqs = values.map(Seq(_)) ++ (for (a <- values; b <- values) yield Seq(a, b)) ++
      (for (a <- values; b <- values; c <- values) yield Seq(a, b, c))
    val bounds = Seq(-5L, 0L, 2L, 3L, 10L, 12L, 19L, 25L)
    for (vs <- seqs; last <- values) {
      val rows = vs.zipWithIndex.map { case (v, i) => (i + 1L, v) } :+ ((11L, last))
      val pa = new PreAggTable(Seq(10L, 20L))
      rows.foreach { case (t, v) => v.fold(pa.insertNull("k", t))(pa.insert("k", t, _)) }
      def fold(lo: Long, hi: Long, acc: PartialAcc): Unit =
        rows.foreach { case (t, v) => if (t >= lo && t <= hi) v.fold(acc.addNull())(acc.add) }
      for (lo <- bounds; hi <- bounds if lo <= hi) {
        val got  = pa.queryRows("k", lo, hi, fold)
        val want = { val acc = new PartialAcc; fold(lo, hi, acc); acc }
        val zeros = rows.collect { case (t, Some(v)) if t >= lo && t <= hi && v == 0.0 => 1 / v }.distinct
        assert(sameBits(got, want, zeros.size == 2),
          s"rows $rows, range [$lo, $hi]: got ${(got.rows, got.cnt, got.sum, got.min, got.max)}")
      }
    }
  }

  test("multi-row buckets opened out of order inside a full level array, past several side-array growths, keep queries exact") {
    // one row in each of buckets 20, 40, .., 20n, then in shuffled order a
    // second row for some of them and two rows each in new buckets 20k + 10
    // between them, so buckets take their side entries out of bucket order
    val levels = Seq(10L, 20L, 200L)
    for (n <- Seq(1, 2, 5, 13, 40)) {
      val rnd = new Random(n)
      val pa = new PreAggTable(levels)
      val rows = scala.collection.mutable.ArrayBuffer.empty[(Long, Option[Double])]
      def add(t: Long, v: Option[Double]): Unit = { v.fold(pa.insertNull("k", t))(pa.insert("k", t, _)); rows += ((t, v)) }
      def value(): Option[Double] = if (rnd.nextInt(5) == 0) None else Some(rnd.nextInt(101) - 50.0)
      (1 to n).foreach(b => add(20L * b + 3, value()))
      val later = rnd.shuffle((1 to n).map(b => Seq(20L * b + 5)) ++ (0 to n).map(b => Seq(20L * b + 12, 20L * b + 17)))
      later.foreach(_.foreach(add(_, value())))
      def fold(lo: Long, hi: Long, acc: PartialAcc): Unit =
        rows.foreach { case (t, v) => if (t >= lo && t <= hi) v.fold(acc.addNull())(acc.add) }
      assert(pa.bucketCount == levels.map(w => rows.map(r => math.floorDiv(r._1, w)).distinct.size.toLong).sum)
      val edges = -5L to 20L * (n + 2) by 3L
      for (lo <- edges; hi <- edges if lo <= hi) {
        val got  = pa.queryRows("k", lo, hi, fold)
        val want = { val acc = new PartialAcc; fold(lo, hi, acc); acc }
        assert(sameBits(got, want), s"n $n, range [$lo, $hi]")
      }
    }
  }

  test("a row past the most a bucket counts throws, and leaves every level as it was") {
    // no test inserts 2^32 rows: the coarse bucket's row count (the high
    // half of its meta word) is set to the limit through reflection
    def field(o: AnyRef, name: String): AnyRef = {
      val f = o.getClass.getDeclaredField(name); f.setAccessible(true); f.get(o)
    }
    val pa = new PreAggTable(Seq(10L, 100L))
    pa.insert("k", 5, 1.0); pa.insert("k", 15, 2.0)
    val levels = field(pa, "state").asInstanceOf[java.util.concurrent.ConcurrentHashMap[String, Array[AnyRef]]].get("k")
    val coarse = field(levels(1), "buckets").asInstanceOf[Array[Long]]
    coarse(1) = (0xFFFFFFFFL << 32) | (coarse(1) & 0xFFFFFFFFL)
    val e = intercept[IllegalStateException](pa.insert("k", 7, 3.0))
    assert(e.getMessage.contains("4294967295 rows"))
    val none = (_: Long, _: Long) => Iterator.empty[(Long, Double)]
    val fine = pa.query("k", 0, 19, none)
    assert(fine.rows == 2 && fine.sum == 3.0 && pa.lastQueryBuckets == 2)
    val all = pa.query("k", 0, 99, none)
    assert(all.rows == 0xFFFFFFFFL && all.cnt == 2 && all.sum == 3.0 && all.min == 1.0 && all.max == 2.0)
  }

  test("concurrent inserts and queries on one key see whole rows") {
    val pa = new PreAggTable(Seq(10L, 100L))
    val n = 20000
    val started = new AtomicInteger(0); val finished = new AtomicInteger(0)
    val writing = new AtomicBoolean(true)
    val errors = new ConcurrentLinkedQueue[String]()
    // two writers over interleaved ts in shuffled order (buckets open
    // mid-level); even ts carry 1.0, odd ts are null-valued rows
    val writers = (0 until 2).map { w =>
      val order = new Random(w).shuffle((w until n by 2).toVector)
      new Thread(() => order.foreach { t =>
        started.incrementAndGet()
        if (t % 2 == 0) pa.insert("k", t.toLong, 1.0) else pa.insertNull("k", t.toLong)
        finished.incrementAndGet()
      })
    }
    val readers = (0 until 2).map { _ =>
      new Thread(() => while (writing.get()) {
        val before = finished.get()
        val p = pa.query("k", 0, n + 99, (_, _) => Iterator.empty)
        val after = started.get()
        if (p.rows < before || p.rows > after || p.cnt.toDouble != p.sum || p.cnt > p.rows ||
            (p.cnt > 0 && (p.min != 1.0 || p.max != 1.0)))
          errors.add(s"rows ${p.rows} (inserted $before..$after), cnt ${p.cnt}, sum ${p.sum}")
      })
    }
    readers.foreach(_.start()); writers.foreach(_.start())
    writers.foreach(_.join()); writing.set(false); readers.foreach(_.join())
    assert(errors.isEmpty, errors.asScala.take(3).mkString("; "))
    val p = pa.query("k", 0, n + 99, (_, _) => Iterator.empty)
    assert(p.rows == n && p.cnt == n / 2 && p.sum == n / 2)
  }
}
