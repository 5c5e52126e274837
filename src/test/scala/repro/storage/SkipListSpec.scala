package repro.storage

import java.util.concurrent.{ConcurrentLinkedQueue, CyclicBarrier, TimeUnit}
import java.util.concurrent.atomic.AtomicBoolean
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import scala.util.Random

class SkipListSpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  // ----------------------------------------------------------- TimeList

  test("timelist: iterator is newest-first") {
    val tl = new TimeList[String]
    Seq(3L, 1L, 2L, 5L, 4L).foreach(t => tl.insert(t, s"p$t"))
    assert(tl.iterator.map(_.ts).toSeq == Seq(5L, 4L, 3L, 2L, 1L))
  }

  test("timelist: scan returns the closed time range, newest first") {
    val tl = new TimeList[Int]
    (1L to 10L).foreach(t => tl.insert(t, t.toInt))
    assert(tl.scan(3, 7).map(_.ts).toSeq == Seq(7L, 6L, 5L, 4L, 3L))
  }

  test("timelist: duplicate timestamps are all retained") {
    val tl = new TimeList[Int]
    Seq(5L, 5L, 5L, 3L).foreach(t => tl.insert(t, 0))
    assert(tl.scan(5, 5).size == 3)
    assert(tl.size == 4)
  }

  test("timelist: latest returns the newest at-or-before entry") {
    val tl = new TimeList[String]
    Seq(10L, 20L, 30L).foreach(t => tl.insert(t, s"p$t"))
    assert(tl.latest().map(_.payload).contains("p30"))
    assert(tl.latest(25L).map(_.payload).contains("p20"))
    assert(tl.latest(5L).isEmpty)
  }

  test("timelist: trimBefore batch-deletes the stale tail") {
    val tl = new TimeList[Int]
    (1L to 100L).foreach(t => tl.insert(t, 0))
    val removed = tl.trimBefore(40L)
    assert(removed == 39)
    assert(tl.size == 61)
    assert(tl.iterator.map(_.ts).min == 40L)
  }

  test("timelist: trimBefore on an empty or all-fresh list removes nothing") {
    val tl = new TimeList[Int]
    assert(tl.trimBefore(10L) == 0)
    tl.insert(50L, 1)
    assert(tl.trimBefore(10L) == 0 && tl.size == 1)
  }

  test("timelist: concurrent mostly-ascending inserts keep descending order") {
    val tl = new TimeList[Int]
    val threads = (0 until 4).map { t =>
      new Thread(() => (0 until 2000).foreach(i => tl.insert(i.toLong * 4 + t, i)))
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    val ts = tl.iterator.map(_.ts).toSeq
    assert(ts.size == 8000)
    assert(ts == ts.sorted(Ordering[Long].reverse))
  }

  /** (ts, insert index) newest first: ts descending, then later inserts
    * first among equal ts — the order TimeList promises.
    */
  private def reference(tss: Seq[Long]): Seq[(Long, Int)] =
    tss.zipWithIndex.sortBy { case (t, i) => (-t, -i) }

  private def filled(tss: Seq[Long]): TimeList[Int] = {
    val tl = new TimeList[Int]
    tss.zipWithIndex.foreach { case (t, i) => tl.insert(t, i) }
    tl
  }

  private def pairs(it: Iterator[TsEntry[Int]]): Seq[(Long, Int)] = it.map(e => (e.ts, e.payload)).toSeq

  test("property: timelist agrees with a sorted reference under ties and out-of-order inserts") {
    val tss = Gen.choose(0, 600).flatMap(n => Gen.listOfN(n, Gen.chooseNum(0L, 80L)))
    val bound = Gen.chooseNum(-5L, 85L)
    val queries = Gen.listOfN(20, Gen.zip(bound, bound))
    check(Prop.forAll(tss, queries, bound) { (tss, qs, cut) =>
      val tl = filled(tss)
      val ref = reference(tss)
      def agrees(live: Seq[(Long, Int)]): Boolean =
        pairs(tl.iterator) == live && tl.size == live.size &&
          qs.forall { case (lo, hi) =>
            pairs(tl.scan(lo, hi)) == live.filter { case (t, _) => t >= lo && t <= hi } &&
              tl.latest(hi).map(e => (e.ts, e.payload)) == live.find(_._1 <= hi)
          }
      val before = agrees(ref)
      val removed = tl.trimBefore(cut)
      before && removed == ref.count(_._1 < cut) && agrees(ref.filter(_._1 >= cut))
    })
  }

  test("timelist: after trimBefore no level reaches a cut node") {
    val tl = new TimeList[Int]
    (0 until 5000).foreach(i => tl.insert(i.toLong, i))
    assert(tl.trimBefore(3000L) == 3000)
    (0L until 3000L).foreach { t =>
      assert(tl.latest(t).isEmpty, s"latest($t) reached a cut node")
      assert(tl.scan(t - 100, t).isEmpty, s"scan(.., $t) reached a cut node")
    }
    assert(tl.latest(3000L).map(_.ts).contains(3000L))
    assert(tl.scan(Long.MinValue, Long.MaxValue).map(_.ts).toSeq == (4999L to 3000L by -1L))
  }

  test("timelist: scans running beside 4 appending threads stay ordered and in range") {
    val tl = new TimeList[Int]
    val perThread = 20000
    val appending = new AtomicBoolean(true)
    val errors = new ConcurrentLinkedQueue[String]()
    val appenders = (0 until 4).map { t =>
      new Thread(() => (0 until perThread).foreach(i => tl.insert(i.toLong * 4 + t, t)))
    }
    val scanners = (0 until 2).map { s =>
      new Thread(() => {
        val rnd = new Random(s)
        var scans = 0
        while (appending.get() || scans < 100) {
          val hi = rnd.nextLong(perThread * 4L)
          val lo = hi - rnd.nextInt(2000)
          val got = tl.scan(lo, hi).map(_.ts).toVector
          if (got != got.sorted(Ordering[Long].reverse)) errors.add(s"scan($lo, $hi) not descending")
          if (got.exists(t => t < lo || t > hi)) errors.add(s"scan($lo, $hi) left the range")
          scans += 1
        }
      })
    }
    scanners.foreach(_.start()); appenders.foreach(_.start())
    appenders.foreach(_.join()); appending.set(false); scanners.foreach(_.join())
    assert(errors.isEmpty, errors.asScala.take(5).mkString("; "))
    assert(tl.size == 4L * perThread)
    assert(tl.iterator.map(_.ts).toSeq == ((4L * perThread - 1) to 0L by -1L))
  }

  test("timelist: 8 threads racing into fresh lists install each head tower once, losing no link") {
    // 64 rows per list: a list gets no node taller than one level with
    // probability (3/4)^64, so every list installs its head tower while
    // the other threads insert into it
    val lists = 300
    val threads = 8
    val perThread = 8
    val tls = Array.fill(lists)(new TimeList[Int])
    val rnd = new Random(7)
    val rows = Array.fill(lists, threads, perThread)(rnd.nextLong(100)) // out of order, with ties
    val start = new CyclicBarrier(threads)
    val errors = new ConcurrentLinkedQueue[Throwable]()
    val workers = (0 until threads).map { t =>
      new Thread(() =>
        try (0 until lists).foreach { l =>
          start.await(30, TimeUnit.SECONDS)
          (0 until perThread).foreach(i => tls(l).insert(rows(l)(t)(i), t * perThread + i))
        } catch { case e: Throwable => errors.add(e) })
    }
    workers.foreach(_.start()); workers.foreach(_.join())
    assert(errors.isEmpty, errors.asScala.take(3).mkString("; "))
    (0 until lists).foreach { l =>
      val tl = tls(l)
      val want = (for (t <- 0 until threads; i <- 0 until perThread) yield (rows(l)(t)(i), t * perThread + i)).sorted
      val got = pairs(tl.scan(Long.MinValue, Long.MaxValue))
      assert(tl.size == want.size && got.sorted == want, s"list $l lost or duplicated a row")
      assert(got.map(_._1) == got.map(_._1).sorted(Ordering[Long].reverse), s"list $l out of order")
      assert(tl.top() > 1, s"list $l has no tall node")
      assert(tl.lostLinks == 0, s"list $l lost ${tl.lostLinks} upper-level links")
      want.map(_._1).distinct.foreach { ts =>
        assert(tl.latest(ts).map(_.ts).contains(ts), s"list $l: latest($ts) missed")
        assert(tl.latest(ts - 1).map(_.ts) == want.map(_._1).filter(_ < ts).maxOption, s"list $l: latest(${ts - 1})")
      }
    }
  }

  // ---------------------------------------------------- TimeSeriesStore

  test("store: put/scan/latest across keys") {
    val st = new TimeSeriesStore[String, String]
    st.put("a", 1, "a1"); st.put("a", 3, "a3"); st.put("b", 2, "b2")
    assert(st.scan("a", 0, 10).map(_.payload).toSeq == Seq("a3", "a1"))
    assert(st.latest("b", 10).map(_.payload).contains("b2"))
    assert(st.scan("c", 0, 10).isEmpty)
    assert(st.nKeys == 2 && st.nRows == 3)
  }

  test("store: evictBefore trims every key") {
    val st = new TimeSeriesStore[String, Int]
    for (k <- Seq("x", "y"); t <- 1L to 10L) st.put(k, t, 0)
    assert(st.evictBefore(6L) == 10)
    assert(st.nRows == 10)
    assert(st.scan("x", 0, 100).map(_.ts).min == 6L)
  }

  test("store: a second put on a key appends to its time list") {
    val st = new TimeSeriesStore[String, Int]
    st.put("k", 1, 1)
    val s = st.series("k")
    st.put("k", 2, 2)
    assert(st.series("k") eq s)
    assert(st.nKeys == 1 && s.size == 2)
  }

  test("store: series of a missing key is null") {
    val st = new TimeSeriesStore[Long, String]
    st.put(5L, 1, "x")
    assert(st.series(4L) == null && st.latest(4L).isEmpty)
    assert(st.series(5L).latest().map(_.payload).contains("x"))
  }

  /** Runs `body(t)` on `n` threads released together. */
  private def race(n: Int)(body: Int => Unit): Unit = {
    val start = new CyclicBarrier(n)
    val threads = (0 until n).map(t => new Thread(() => { start.await(); body(t) }))
    threads.foreach(_.start()); threads.foreach(_.join())
  }

  test("store: 8 threads putting overlapping keys keep every key and row") {
    val st = new TimeSeriesStore[String, Int]
    val keys = (0 until 2000).map(k => s"u$k")
    // Every thread walks the keys in the same order, so each key is new to
    // several threads at the same moment.
    race(8)(t => keys.zipWithIndex.foreach { case (k, i) => st.put(k, i.toLong * 8 + t, t) })
    assert(st.nKeys == keys.size)
    assert(st.nRows == 8L * keys.size)
    keys.foreach(k => assert(st.scan(k, Long.MinValue, Long.MaxValue).map(_.payload).toSet == (0 until 8).toSet, k))
  }

  test("store: 8 threads racing on one new key share one time list") {
    val st = new TimeSeriesStore[String, Int]
    (0 until 200).foreach { round =>
      val key = s"hot$round"
      val seen = new ConcurrentLinkedQueue[TimeList[Int]]()
      race(8) { t => st.put(key, t.toLong, t); seen.add(st.series(key)) }
      assert(seen.asScala.forall(_ eq st.series(key)), s"$key: threads saw different time lists")
      assert(st.series(key).size == 8, s"$key lost rows")
    }
    assert(st.nKeys == 200 && st.nRows == 1600)
  }
}
