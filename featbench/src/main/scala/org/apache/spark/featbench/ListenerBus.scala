package org.apache.spark.featbench

import org.apache.spark.SparkContext

/** Access to Spark's listener bus, which is package-private. */
object ListenerBus {
  /** Blocks until every event posted so far has reached the listeners. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
