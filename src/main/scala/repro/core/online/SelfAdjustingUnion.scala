package repro.core.online

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, LinkedBlockingQueue}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import scala.collection.mutable.ArrayBuffer

/** Multi-table window-union streaming executors (§5.2 and §9.3.2).
  *
  * The workload: an interleaved stream of tuples from several tables,
  * sharing a key space; every tuple must be answered with the running
  * window aggregate (here: sum over the last `windowMs`) across ALL
  * tables for its key — the online WINDOW UNION.
  *
  * [[StaticUnion]] is the Flink-shaped baseline the paper describes:
  * static key-hash routing to worker threads and no retained incremental
  * state — each tuple re-scans its key's buffered window (the paper's
  * "has to re-sort the data to identify the oldest entries", O(w) per
  * tuple) and suffers hot-key imbalance under zipf keys.
  *
  * [[SelfAdjustingUnion]] is the paper's engine: (1) on-the-fly load
  * balancing — a router map periodically reassigns the hottest keys from
  * the most loaded worker to the least loaded; (2) incremental
  * subtract-and-evict — per-key deque with running sum, O(1) amortized
  * per tuple.
  */
object WindowUnionStream {

  /** One stream tuple; `table` only matters for provenance (the union
    * aggregates across tables by construction).
    */
  final case class StreamTuple(table: Int, key: String, ts: Long, value: Double)

  /** Golden single-threaded reference (used by correctness tests). */
  def sequentialReference(tuples: Seq[StreamTuple], windowMs: Long): Array[Double] = {
    val buf = scala.collection.mutable.HashMap.empty[String, ArrayBuffer[(Long, Double)]]
    tuples.zipWithIndex.map { case (t, _) =>
      val b = buf.getOrElseUpdate(t.key, ArrayBuffer.empty)
      b += ((t.ts, t.value))
      b.filter { case (ts, _) => ts >= t.ts - windowMs && ts <= t.ts }.map(_._2).sum
    }.toArray
  }

  /** Per-key sliding-window state: the entries inside the current frame,
    * ts-ascending in a ring buffer, plus their running sum. `run` hands
    * each key's tuples to `handle` one at a time and in ts order, across
    * key handoffs too, so an entry that leaves the frame can never be
    * needed again and is dropped for good.
    */
  final class KeyState {
    private var tss = new Array[Long](4)
    private var vals = new Array[Double](4)
    private var head = 0
    private var n = 0
    private var sumWindow = 0.0

    /** Entries currently retained. */
    private[online] def size: Int = synchronized(n)

    private def at(i: Int): Int = (head + i) & (tss.length - 1)

    private def append(ts: Long, v: Double): Unit = {
      if (n == tss.length) {
        val (t2, v2) = (new Array[Long](n * 2), new Array[Double](n * 2))
        (0 until n).foreach { i => t2(i) = tss(at(i)); v2(i) = vals(at(i)) }
        tss = t2; vals = v2; head = 0
      }
      tss(at(n)) = ts; vals(at(n)) = v; n += 1
    }

    /** Drops the entries older than `cutoff`; returns their sum. */
    private def evictBefore(cutoff: Long): Double = {
      var dropped = 0.0
      while (n > 0 && tss(head) < cutoff) {
        dropped += vals(head); head = at(1); n -= 1
      }
      dropped
    }

    /** Subtract-and-evict: O(1) amortized per tuple. */
    def addAndQuery(ts: Long, v: Double, windowMs: Long): Double = synchronized {
      append(ts, v)
      sumWindow += v - evictBefore(ts - windowMs)
      sumWindow
    }

    /** The static baseline: same buffer and eviction, but no retained sum,
      * so every tuple pays an O(w) scan of its frame.
      */
    def rescan(ts: Long, v: Double, windowMs: Long): Double = synchronized {
      append(ts, v)
      evictBefore(ts - windowMs)
      var s = 0.0
      var i = 0
      while (i < n) { s += vals(at(i)); i += 1 }
      s
    }
  }

  private final class KeyProgress(var next: Int, var lastTs: Long)

  abstract class ThreadedEngine(nWorkers: Int) {

    /** worker id for a tuple at submission time */
    protected def route(key: String): Int

    /** Answers `t` from its key's state in the current run. */
    protected def handle(t: StreamTuple, st: KeyState): Double

    /** Run the whole stream; returns per-tuple results in input order.
      *
      * Per-key ordering across key handoffs: every tuple carries its
      * per-key sequence number. If a worker dequeues tuple n of a key
      * before tuple n-1 has been processed (the predecessor is still in
      * the old worker's backlog after a rebalance), it parks the tuple in
      * a pending map instead of computing a wrong early answer; whichever
      * worker processes the predecessor then chain-processes the parked
      * successor. Ordering stays exact with zero spinning — the §5.2
      * contract without the throughput cliff of busy requeueing.
      *
      * Key states and sequence gates belong to one call, so an engine can
      * run any number of streams.
      *
      * @throws IllegalArgumentException if a key's `ts` goes backwards in
      *         `tuples`; checked before any worker starts
      * @throws Throwable the first error a worker hit (in `handle` or
      *         `onProcessed`), after the other workers drained their queues
      */
    def run(tuples: IndexedSeq[StreamTuple]): Array[Double] = {
      val results = new Array[Double](tuples.length)
      // per-tuple per-key sequence numbers; submission order must be ts
      // order per key, which is what lets KeyState evict for good
      val seqOf: Array[Int] = {
        val out = new Array[Int](tuples.length)
        val seen = scala.collection.mutable.HashMap.empty[String, KeyProgress]
        tuples.indices.foreach { i =>
          val t = tuples(i)
          val p = seen.getOrElseUpdate(t.key, new KeyProgress(0, t.ts))
          require(t.ts >= p.lastTs,
            s"key ${t.key}: ts ${t.ts} comes after ts ${p.lastTs}; run needs each key's tuples in ts order")
          out(i) = p.next
          p.next += 1
          p.lastTs = t.ts
        }
        out
      }
      val states = new ConcurrentHashMap[String, KeyState]()
      val seqDone = new ConcurrentHashMap[String, AtomicInteger]()
      // (key, seq) -> parked tuple index awaiting its predecessor
      val pending = new ConcurrentHashMap[(String, Int), Integer]()
      val queues = Array.fill(nWorkers)(new LinkedBlockingQueue[Integer]())
      val done = new CountDownLatch(nWorkers)
      val failure = new AtomicReference[Throwable]()

      def process(idx0: Int): Unit = {
        var idx = idx0
        while (idx >= 0) {
          val t = tuples(idx)
          results(idx) = handle(t, states.computeIfAbsent(t.key, _ => new KeyState))
          onProcessed()
          val gate = seqDone.get(t.key)
          val nextSeq = gate.incrementAndGet()
          // chain-process a parked successor, if any arrived early
          val parked = pending.remove((t.key, nextSeq))
          idx = if (parked != null) parked.intValue() else -1
        }
      }

      val workers = (0 until nWorkers).map { w =>
        val th = new Thread(() => {
          try {
            var stop = false
            while (!stop) {
              val idx = queues(w).take()
              if (idx < 0) stop = true
              else {
                val t = tuples(idx)
                val gate = seqDone.computeIfAbsent(t.key, _ => new AtomicInteger(0))
                if (gate.get() == seqOf(idx)) process(idx)
                else {
                  // park; re-check the gate to close the race where the
                  // predecessor finished between our check and the put
                  pending.put((t.key, seqOf(idx)), idx)
                  if (gate.get() == seqOf(idx)) {
                    val again = pending.remove((t.key, seqOf(idx)))
                    if (again != null) process(again.intValue())
                  }
                }
              }
            }
          } catch {
            // this worker stops; the others drain their queues (their
            // tuples never wait on it) and run rethrows once all are done
            case e: Throwable => failure.compareAndSet(null, e)
          } finally done.countDown()
        }, s"union-worker-$w")
        th.setDaemon(true); th.start(); th
      }
      tuples.indices.foreach(i => queues(route(tuples(i).key)).put(i))
      queues.foreach(_.put(-1))
      done.await()
      workers.foreach(_.join())
      val err = failure.get()
      if (err != null) throw err
      // a parked tail tuple whose predecessor chain completed after the
      // final poison is impossible: chains fire synchronously inside
      // process(), so by worker exit every tuple has been handled
      require(pending.isEmpty, s"unprocessed parked tuples: ${pending.size()}")
      results
    }

    protected def onProcessed(): Unit = ()
  }

  /** Flink-style baseline: static hash routing + O(w) rescan per tuple. */
  final class StaticUnion(nWorkers: Int, windowMs: Long) extends ThreadedEngine(nWorkers) {
    protected def route(key: String): Int = math.floorMod(key.hashCode, nWorkers)
    protected def handle(t: StreamTuple, st: KeyState): Double = st.rescan(t.ts, t.value, windowMs)
  }

  /** The paper's engine: dynamic key->worker routing + subtract-and-evict. */
  final class SelfAdjustingUnion(nWorkers: Int, windowMs: Long,
                                 rebalanceEvery: Int = 20000) extends ThreadedEngine(nWorkers) {
    private val routing = new ConcurrentHashMap[String, Integer]()
    private val keyLoad = new ConcurrentHashMap[String, java.util.concurrent.atomic.AtomicLong]()
    private val sinceRebalance = new java.util.concurrent.atomic.AtomicLong(0)
    @volatile var rebalances: Int = 0

    protected def route(key: String): Int = {
      keyLoad.computeIfAbsent(key, _ => new java.util.concurrent.atomic.AtomicLong(0)).incrementAndGet()
      val r = routing.get(key)
      if (r != null) r.intValue() else math.floorMod(key.hashCode, nWorkers)
    }

    protected def handle(t: StreamTuple, st: KeyState): Double = st.addAndQuery(t.ts, t.value, windowMs)

    override protected def onProcessed(): Unit = {
      if (sinceRebalance.incrementAndGet() % rebalanceEvery == 0) rebalance()
    }

    /** Move the hottest keys off the most loaded worker onto the least
      * loaded one (runtime-metric-driven, as in §5.2 step 1).
      */
    private def rebalance(): Unit = synchronized {
      val loadPerWorker = Array.fill(nWorkers)(0L)
      val it = keyLoad.entrySet().iterator()
      // one snapshot of (worker, load) per key: the feeding thread keeps
      // counting while this runs, and a sort over live counters breaks
      // the comparator's contract
      val keyToWorker = scala.collection.mutable.HashMap.empty[String, (Int, Long)]
      while (it.hasNext) {
        val e = it.next()
        val w = { val r = routing.get(e.getKey); if (r != null) r.intValue() else math.floorMod(e.getKey.hashCode, nWorkers) }
        val load = e.getValue.get()
        keyToWorker(e.getKey) = (w, load)
        loadPerWorker(w) += load
      }
      val hot  = loadPerWorker.indices.maxBy(loadPerWorker)
      val cold = loadPerWorker.indices.minBy(loadPerWorker)
      if (hot != cold && loadPerWorker(hot) > 2 * math.max(1L, loadPerWorker(cold))) {
        // move the hot worker's heaviest keys until roughly even
        val hotKeys = keyToWorker.collect { case (k, (w, load)) if w == hot => (k, load) }.toSeq
          .sortBy(-_._2)
        var moved = 0L
        val target = (loadPerWorker(hot) - loadPerWorker(cold)) / 2
        hotKeys.takeWhile { case (k, load) =>
          // never empty the hot worker entirely; move large keys first
          routing.put(k, Integer.valueOf(cold))
          moved += load
          moved < target
        }
        rebalances += 1
      }
    }
  }
}
