package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Spark delivers listener events asynchronously; a test reads what its
  * listener counted only after the bus has delivered every event posted
  * so far. `listenerBus` is `private[spark]`, hence this package.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** `body`'s value and the number of Spark jobs that started on `sc`
    * while it ran.
    */
  def jobsDuring[A](sc: SparkContext)(body: => A): (A, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    drain(sc)
    sc.addSparkListener(listener)
    val a =
      try { val a = body; drain(sc); a }
      finally sc.removeSparkListener(listener)
    (a, jobs.get)
  }
}
