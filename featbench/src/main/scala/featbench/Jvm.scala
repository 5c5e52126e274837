package featbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** JVM-level instruments: retained heap after a full collection, GC pause
  * totals and per-thread allocation.
  */
object Jvm {
  private val memory = ManagementFactory.getMemoryMXBean
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Full GC (twice, so objects freed by finalisation-like cleanup on the
    * first pass go too), then the heap still in use.
    */
  def retainedHeap(): Long = {
    System.gc(); System.gc()
    memory.getHeapMemoryUsage.getUsed
  }

  /** Accumulated collection time, ms, over every collector. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def maxHeap: Long = Runtime.getRuntime.maxMemory

  def flags: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
}
