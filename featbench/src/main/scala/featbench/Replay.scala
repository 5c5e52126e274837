package featbench

import java.util.concurrent.atomic.AtomicLong

/** Closed-loop replay of a fixed event log: `threads` clients, each owning
  * the events whose `part` is its index, each sending its next event only
  * after the previous one returned. Per-key order is exact as long as
  * `part` is a function of the key.
  */
object Replay {

  final case class Outcome(requestLatNs: Array[Double], insertLatNs: Array[Double],
                           responses: Map[Int, Map[String, Any]], errors: Long,
                           firstError: Option[Throwable], wallNs: Long)

  /** @param isRequest events that are requests (the rest are inserts)
    * @param keep      requests whose responses are kept for checking
    * @param exec      performs event i; returns the response for a request
    */
  def run(from: Int, until: Int, threads: Int, part: Int => Int, isRequest: Int => Boolean,
          keep: Int => Boolean)(exec: Int => Map[String, Any]): Outcome = {
    val errors = new AtomicLong()
    @volatile var firstError: Option[Throwable] = None
    val perThread = Array.fill(threads)(
      (scala.collection.mutable.ArrayBuffer.empty[Double], scala.collection.mutable.ArrayBuffer.empty[Double],
        scala.collection.mutable.HashMap.empty[Int, Map[String, Any]]))
    val start = new java.util.concurrent.CountDownLatch(1)
    val workers = (0 until threads).map { t =>
      val th = new Thread(() => {
        val (reqLat, insLat, kept) = perThread(t)
        start.await()
        var i = from
        while (i < until) {
          if (part(i) == t) {
            val t0 = System.nanoTime()
            try {
              val r = exec(i)
              val dt = (System.nanoTime() - t0).toDouble
              if (isRequest(i)) { reqLat += dt; if (keep(i)) kept(i) = r } else insLat += dt
            } catch {
              case e: Throwable => errors.incrementAndGet(); if (firstError.isEmpty) firstError = Some(e)
            }
          }
          i += 1
        }
      }, s"replay-$t")
      th.start(); th
    }
    val t0 = System.nanoTime()
    start.countDown()
    workers.foreach(_.join())
    val wall = System.nanoTime() - t0
    Outcome(perThread.flatMap(_._1), perThread.flatMap(_._2),
      perThread.flatMap(_._3).toMap, errors.get, firstError, wall)
  }
}
